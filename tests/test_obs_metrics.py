"""Metrics registry semantics plus aggregation across real executors.

The registry half pins key formatting, counter/gauge/histogram behaviour
and the deterministic snapshot.  The executor half runs actual
``BatchSolveService`` batches under every executor with obs enabled and
asserts the probes aggregate into one registry regardless of where the
work ran — thread workers count in-place (shared interpreter).
"""

from __future__ import annotations

import json

import pytest

from repro import (
    BatchSolveService,
    FlowNetwork,
    SolveRequest,
    get_registry,
    reset_metrics,
    set_obs_enabled,
)
from repro.graph.updates import CapacityUpdate
from repro.obs import clear_traces, probes, recent_traces
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    metric_key,
)
from repro.obs.trace import span
from repro.service import StreamingSession, push_all


@pytest.fixture
def obs_on():
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    yield
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


def tiny_network(bottleneck: float = 2.0) -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "a", 4.0)
    g.add_edge("a", "t", bottleneck)
    return g


class TestMetricKey:
    def test_bare_name_without_labels(self):
        assert metric_key("service.solves", {}) == "service.solves"

    def test_labels_are_sorted_for_determinism(self):
        key = metric_key("service.solves", {"tag": "x", "backend": "dinic"})
        assert key == "service.solves{backend=dinic,tag=x}"


class TestRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = MetricsRegistry()
        assert reg.counter("hits", backend="a") == 1.0
        assert reg.counter("hits", 2.0, backend="a") == 3.0
        assert reg.counter("hits", backend="b") == 1.0
        assert reg.get_counter("hits", backend="a") == 3.0
        assert reg.get_counter("hits", backend="missing") == 0.0

    def test_gauges_overwrite(self):
        reg = MetricsRegistry()
        reg.gauge("depth", 4.0)
        reg.gauge("depth", 2.0)
        assert reg.get_gauge("depth") == 2.0

    def test_histogram_bins_against_fixed_buckets(self):
        hist = Histogram(bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 2, 1]  # <=0.1, <=1.0, overflow
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)

    def test_default_buckets_are_sorted_and_span_latencies(self):
        bounds = DEFAULT_LATENCY_BUCKETS_S
        assert list(bounds) == sorted(bounds)
        assert bounds[0] <= 1e-4 and bounds[-1] >= 10.0

    def test_snapshot_is_sorted_and_json_stable(self):
        reg = MetricsRegistry()
        reg.counter("z.last")
        reg.counter("a.first")
        reg.gauge("m.middle", 1.0)
        reg.observe("lat", 0.01)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        # to_json parses back to exactly the snapshot (determinism gate).
        assert json.loads(reg.to_json()) == snap

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.gauge("g", 1.0)
        reg.observe("h", 0.5)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestProbes:
    def test_probes_are_inert_when_disabled(self):
        reset_metrics()
        probes.kernel_sweep()
        probes.solve_finished("dinic", cache_hit=True)
        assert get_registry().snapshot()["counters"] == {}

    def test_probe_events_land_in_global_registry(self, obs_on):
        probes.kernel_sweep()
        probes.kernel_sweep()
        probes.solve_finished("dinic", cache_hit=True)
        reg = get_registry()
        assert reg.get_counter(probes.EVENT_KERNEL_SWEEP) == 2.0
        assert reg.get_counter(probes.EVENT_SOLVE, backend="dinic") == 1.0
        assert reg.get_counter(probes.EVENT_CACHE_HIT, backend="dinic") == 1.0


class TestExecutorAggregation:
    """One registry view per batch, identical across executors."""

    REQUESTS = 4

    def _requests(self):
        return [
            SolveRequest(network=tiny_network(), backend="dinic", tag=f"r{i}")
            for i in range(self.REQUESTS)
        ]

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1),
        ("thread", 2),
    ])
    def test_solve_counters_aggregate_across_executors(
        self, obs_on, executor, workers
    ):
        service = BatchSolveService(executor=executor, max_workers=workers)
        report = service.solve_batch(self._requests())
        assert report.num_ok == self.REQUESTS
        assert get_registry().get_counter(
            probes.EVENT_SOLVE, backend="dinic"
        ) == float(self.REQUESTS)

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1),
        ("thread", 2),
    ])
    def test_batch_span_collects_per_request_children(
        self, obs_on, executor, workers
    ):
        BatchSolveService(executor=executor, max_workers=workers).solve_batch(
            self._requests()
        )
        roots = [s for s in recent_traces() if s.name == "batch.solve"]
        assert roots, "batch.solve root span missing"
        root = roots[-1]
        children = [c for c in root.children if c.name == "backend.solve"]
        assert len(children) == self.REQUESTS
        assert all(c.attributes.get("ok") for c in children)
        assert root.attributes["ok"] == self.REQUESTS
        assert root.attributes["failed"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_push_all_span_collects_per_session_children(self, obs_on, workers):
        sessions = [
            StreamingSession(tiny_network(), backend="dinic")
            for _ in range(self.REQUESTS)
        ]
        with span("fanout") as root:
            push_all(
                sessions,
                [[CapacityUpdate(1, 1.0)] for _ in sessions],
                max_workers=workers,
            )
        children = [c for c in root.children if c.name == "streaming.push"]
        assert len(children) == self.REQUESTS
        assert all(c.attributes.get("warm") is not None for c in children)

    def test_kernel_probe_counts_survive_thread_fanout(self, obs_on):
        BatchSolveService(executor="thread", max_workers=4).solve_batch(
            [
                SolveRequest(network=tiny_network(), backend="kernel")
                for _ in range(self.REQUESTS)
            ]
        )
        # Every worker thread bumps the same process-local registry.
        assert get_registry().get_counter(probes.EVENT_KERNEL_SWEEP) > 0


class TestHistogramOverflowInvariant:
    """The +Inf slot keeps every observation accounted for."""

    def test_counts_cover_every_observation(self):
        hist = Histogram(bounds=(0.1, 1.0))
        for value in (0.05, 0.5, 50.0, 1e9):
            hist.observe(value)
        snap = hist.snapshot()
        assert len(snap["counts"]) == len(snap["buckets"]) + 1
        assert sum(snap["counts"]) == snap["count"] == 4
        assert snap["counts"][-1] == 2  # both > 1.0 land in overflow

    def test_default_buckets_env_override(self):
        import subprocess
        import sys

        code = (
            "from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS_S; "
            "print(DEFAULT_LATENCY_BUCKETS_S)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_OBS_BUCKETS": "0.5, 1.5,9"},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "(0.5, 1.5, 9.0)"


class TestSolveLatencyHistogram:
    """service.solve.seconds{backend=} exists under every executor."""

    REQUESTS = 3

    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1),
        ("thread", 2),
    ])
    def test_per_backend_latency_histogram(self, obs_on, executor, workers):
        service = BatchSolveService(executor=executor, max_workers=workers)
        report = service.solve_batch([
            SolveRequest(network=tiny_network(), backend="dinic", tag=f"r{i}")
            for i in range(self.REQUESTS)
        ])
        assert report.num_ok == self.REQUESTS
        snap = get_registry().snapshot()
        key = metric_key(probes.METRIC_SOLVE_SECONDS, {"backend": "dinic"})
        hist = snap["histograms"][key]
        assert hist["count"] == self.REQUESTS
        assert sum(hist["counts"]) == hist["count"]
        assert hist["sum"] > 0.0


class TestExporterRoundTrip:
    """Prometheus text from a live batch parses back to the exact snapshot."""

    def test_live_snapshot_survives_prometheus_round_trip(self, obs_on):
        from repro.obs import parse_prometheus_text, prometheus_text

        BatchSolveService(executor="serial").solve_batch([
            SolveRequest(network=tiny_network(), backend="dinic"),
            SolveRequest(network=tiny_network(), backend="kernel"),
        ])
        snap = get_registry().snapshot()
        assert snap["counters"], "live run produced no counters"
        assert snap["histograms"], "live run produced no histograms"
        assert parse_prometheus_text(prometheus_text(snapshot=snap)) == snap
