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


#: Every probe with the metric it must write: (call, family, name, labels).
PROBE_CASES = [
    pytest.param(probes.kernel_sweep, "counters", probes.EVENT_KERNEL_SWEEP,
                 {}, id="kernel_sweep"),
    pytest.param(probes.dinic_phase, "counters", probes.EVENT_DINIC_PHASE,
                 {}, id="dinic_phase"),
    pytest.param(probes.dc_iteration, "counters", probes.EVENT_DC_ITERATION,
                 {}, id="dc_iteration"),
    pytest.param(probes.shard_iteration, "counters", probes.EVENT_SHARD_ITERATION,
                 {}, id="shard_iteration"),
    pytest.param(lambda: probes.incremental_repair("kernel"), "counters",
                 probes.EVENT_INCREMENTAL_REPAIR, {"algorithm": "kernel"},
                 id="incremental_repair"),
    pytest.param(lambda: probes.incremental_cold("kernel"), "counters",
                 probes.EVENT_INCREMENTAL_COLD, {"algorithm": "kernel"},
                 id="incremental_cold"),
    pytest.param(lambda: probes.solve_finished("dinic", cache_hit=False),
                 "counters", probes.EVENT_SOLVE, {"backend": "dinic"},
                 id="solve_finished"),
    pytest.param(lambda: probes.solve_error("dinic", "ConvergenceError"),
                 "counters", probes.EVENT_SOLVE_ERROR,
                 {"backend": "dinic", "error_type": "ConvergenceError"},
                 id="solve_error"),
    pytest.param(lambda: probes.solve_timed("dinic", 0.003), "histograms",
                 probes.METRIC_SOLVE_SECONDS, {"backend": "dinic"},
                 id="solve_timed"),
    pytest.param(lambda: probes.shard_solve("dinic", warm=True), "counters",
                 probes.EVENT_SHARD_SOLVE, {"backend": "dinic", "warm": True},
                 id="shard_solve"),
    pytest.param(lambda: probes.streaming_push("kernel", warm=False), "counters",
                 probes.EVENT_STREAMING_PUSH, {"backend": "kernel", "warm": False},
                 id="streaming_push"),
    pytest.param(lambda: probes.request_admitted("t1", "kernel"), "counters",
                 probes.EVENT_REQUEST, {"tenant": "t1", "backend": "kernel"},
                 id="request_admitted"),
    pytest.param(lambda: probes.request_shed("t1", "queue-full"), "counters",
                 probes.EVENT_REQUEST_SHED, {"tenant": "t1", "reason": "queue-full"},
                 id="request_shed"),
    pytest.param(lambda: probes.coalesce_hit("kernel"), "counters",
                 probes.EVENT_COALESCE_HIT, {"backend": "kernel"},
                 id="coalesce_hit"),
    pytest.param(lambda: probes.request_timed("kernel", 200, 0.01), "histograms",
                 probes.METRIC_REQUEST_SECONDS, {"backend": "kernel", "status": 200},
                 id="request_timed"),
    pytest.param(lambda: probes.queue_depth(3), "gauges",
                 probes.METRIC_QUEUE_DEPTH, {}, id="queue_depth"),
    pytest.param(lambda: probes.queue_depth(3, tenant="t1"), "gauges",
                 probes.METRIC_QUEUE_DEPTH, {"tenant": "t1"},
                 id="queue_depth_per_tenant"),
    pytest.param(lambda: probes.retry_attempt("solve", 1), "counters",
                 probes.EVENT_RETRY_ATTEMPT, {"target": "solve"},
                 id="retry_attempt"),
    pytest.param(lambda: probes.retry_attempt("", 1), "counters",
                 probes.EVENT_RETRY_ATTEMPT, {"target": "anonymous"},
                 id="retry_attempt_anonymous"),
    pytest.param(lambda: probes.breaker_transition("analog", "open"), "counters",
                 probes.EVENT_BREAKER_TRANSITION,
                 {"breaker": "analog", "state": "open"},
                 id="breaker_transition"),
    pytest.param(lambda: probes.breaker_transition("", "closed"), "counters",
                 probes.EVENT_BREAKER_TRANSITION,
                 {"breaker": "anonymous", "state": "closed"},
                 id="breaker_transition_anonymous"),
    pytest.param(lambda: probes.failover_hop("kernel", "breaker-open"), "counters",
                 probes.EVENT_FAILOVER_HOP,
                 {"backend": "kernel", "outcome": "breaker-open"},
                 id="failover_hop"),
    pytest.param(lambda: probes.fault_injected("batch-solve", "kernel", "error"),
                 "counters", probes.EVENT_FAULT_INJECTED,
                 {"site": "batch-solve", "backend": "kernel", "kind": "error"},
                 id="fault_injected"),
]


class TestProbeTable:
    """Each probe writes exactly one metric under its fixed name and labels,
    and writes nothing at all while obs is off."""

    @pytest.mark.parametrize("call,family,name,labels", PROBE_CASES)
    def test_probe_is_inert_when_off_and_writes_its_metric_when_on(
        self, call, family, name, labels
    ):
        previous = set_obs_enabled(False)
        reset_metrics()
        try:
            call()
            assert get_registry().snapshot() == {
                "counters": {}, "gauges": {}, "histograms": {}
            }
            set_obs_enabled(True)
            call()
            snap = get_registry().snapshot()
        finally:
            set_obs_enabled(previous)
            reset_metrics()
        key = metric_key(name, labels)
        assert list(snap[family]) == [key]
        assert sum(len(snap[other]) for other in snap if other != family) == 0
        value = snap[family][key]
        if family == "counters":
            assert value == 1.0
        elif family == "gauges":
            assert value == 3.0
        else:
            assert value["count"] == 1

    def test_emit_adds_its_amount_under_its_labels(self, obs_on):
        probes.emit("custom.events", 2.5, site="x")
        probes.emit("custom.events", site="x")
        assert get_registry().get_counter("custom.events", site="x") == 3.5
        assert get_registry().get_counter("custom.events") == 0.0


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


    def test_observation_on_a_bound_lands_in_that_bucket(self):
        hist = Histogram(bounds=(0.1, 1.0))
        hist.observe(0.1)
        hist.observe(1.0)
        assert hist.snapshot()["counts"] == [1, 1, 0]

    def test_unsorted_bounds_are_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.1))

    def test_first_observe_fixes_a_keys_buckets(self):
        reg = MetricsRegistry()
        reg.observe("queue.wait", 0.5, buckets=(1.0, 2.0))
        reg.observe("queue.wait", 1.5, buckets=(0.25,))  # ignored: key exists
        reg.observe("solve", 0.5)
        hists = reg.snapshot()["histograms"]
        assert hists["queue.wait"]["buckets"] == [1.0, 2.0]
        assert hists["queue.wait"]["counts"] == [1, 1, 0]
        assert hists["solve"]["buckets"] == list(DEFAULT_LATENCY_BUCKETS_S)


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

