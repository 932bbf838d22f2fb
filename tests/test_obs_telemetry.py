"""One telemetry document shape across all three solving services.

``BatchReport`` (sharded requests included), ``StreamingSession`` and
``ProblemReport`` each expose ``telemetry()``; every document must share
the pinned ``repro.telemetry/v1`` top-level key set and survive a JSON
round trip unchanged, so a single dashboard/exporter understands any
solving path.  Cache-bearing services (batch, streaming) must also
mirror their ``CompiledCircuitCache.stats()`` into registry gauges when
obs is on, and ``tools/trace_dump.py`` must render a telemetry dump
through its embedded trace.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import (
    BatchSolveService,
    FlowNetwork,
    SolveRequest,
    get_registry,
    reset_metrics,
    rmat_graph,
    set_obs_enabled,
)
from repro.obs import clear_traces
from seeding import derive_seed
from repro.obs.telemetry import TELEMETRY_KEYS, TELEMETRY_SCHEMA, build_telemetry
from repro.problems import BipartiteMatching
from repro.service import ProblemSolveService, StreamingSession


@pytest.fixture
def obs_on():
    previous = set_obs_enabled(True)
    clear_traces()
    reset_metrics()
    yield
    set_obs_enabled(previous)
    clear_traces()
    reset_metrics()


def tiny_network() -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "a", 4.0)
    g.add_edge("a", "t", 2.0)
    return g


def matching_problem() -> BipartiteMatching:
    rng = random.Random(derive_seed("obs-telemetry-matching"))
    return BipartiteMatching(
        list(range(5)),
        list(range(5)),
        [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.5],
    )


def all_service_documents():
    """Run one solve per service and collect the three telemetry docs.

    The batch mixes a plain and a sharded request: sharding is a backend,
    so its telemetry is the batch document's.
    """
    batch = BatchSolveService(executor="serial").solve_batch(
        [
            SolveRequest(network=tiny_network(), backend="dinic"),
            SolveRequest(
                network=rmat_graph(12, 30, seed=derive_seed("obs-telemetry-shard")),
                backend="sharded:dinic",
                options={"shards": 2},
            ),
        ]
    )
    session = StreamingSession(tiny_network(), backend="dinic")
    problem = ProblemSolveService().solve(matching_problem(), backend="dinic")
    return {
        "batch": batch.telemetry(),
        "streaming": session.telemetry(),
        "problems": problem.report.telemetry(),
    }


class TestBuildTelemetry:
    def test_document_shape_and_schema(self):
        doc = build_telemetry("batch", {"ok": 1})
        assert tuple(doc) == TELEMETRY_KEYS
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["service"] == "batch"
        assert doc["summary"] == {"ok": 1}
        assert doc["cache"] == {}

    def test_enabled_flag_tracks_obs_state(self, obs_on):
        assert build_telemetry("x", {})["enabled"] is True
        set_obs_enabled(False)
        assert build_telemetry("x", {})["enabled"] is False

    def test_cache_stats_become_gauges_when_enabled(self, obs_on):
        build_telemetry("batch", {}, cache={"hits": 3, "misses": 1})
        reg = get_registry()
        assert reg.get_gauge("cache.hits", service="batch") == 3.0
        assert reg.get_gauge("cache.misses", service="batch") == 1.0

    def test_cache_stats_stay_out_of_registry_when_disabled(self):
        reset_metrics()
        doc = build_telemetry("batch", {}, cache={"hits": 3})
        assert doc["cache"] == {"hits": 3}
        assert get_registry().snapshot()["gauges"] == {}


class TestServiceSchema:
    def test_all_services_share_the_key_set_and_round_trip(self, obs_on):
        documents = all_service_documents()
        assert set(documents) == {"batch", "streaming", "problems"}
        assert documents["batch"]["summary"]["backends"] == {
            "dinic": 1,
            "sharded:dinic": 1,
        }
        for name, doc in documents.items():
            assert tuple(doc) == TELEMETRY_KEYS, name
            assert doc["schema"] == TELEMETRY_SCHEMA
            assert doc["service"] == name
            assert doc["enabled"] is True
            assert isinstance(doc["summary"], dict) and doc["summary"]
            assert set(doc["metrics"]) == {"counters", "gauges", "histograms"}
            # The unified document is wire-ready: a JSON round trip is
            # the identity (no tuples, sets, numpy scalars, NaNs...).
            assert json.loads(json.dumps(doc)) == doc

    def test_cache_bearing_services_report_stats(self, obs_on):
        documents = all_service_documents()
        assert {"hits", "misses"} <= set(documents["batch"]["cache"])
        assert documents["streaming"]["cache"] == {}
        assert documents["problems"]["cache"] == {}

    def test_solver_counters_visible_through_any_document(self, obs_on):
        documents = all_service_documents()
        # The registry snapshot embedded in each document is the same
        # process-wide view: the batch solve's counter shows up even in
        # the problems document (which solved last).
        counters = documents["problems"]["metrics"]["counters"]
        assert any(key.startswith("service.solves") for key in counters)

    def test_documents_work_with_obs_disabled_too(self):
        clear_traces()
        reset_metrics()
        documents = all_service_documents()
        for name, doc in documents.items():
            assert tuple(doc) == TELEMETRY_KEYS, name
            assert doc["enabled"] is False
            assert json.loads(json.dumps(doc)) == doc
        # No probes fired: the embedded snapshots are empty.
        assert documents["batch"]["metrics"]["counters"] == {}


class TestFailoverSignals:
    """Breaker and failover signals reach the telemetry document."""

    def test_open_breaker_skip_and_latency_show_in_the_snapshot(self, obs_on):
        service = BatchSolveService(executor="serial", failover=True)
        breaker = service.failover.breaker_for("kernel")
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        report = service.solve_batch(
            [SolveRequest(network=tiny_network(), backend="kernel")]
        )
        assert report.results[0].degraded
        metrics = report.telemetry()["metrics"]
        counters = metrics["counters"]
        assert counters[
            "resilience.failover_hops{backend=kernel,outcome=breaker-open}"
        ] == 1.0
        assert counters[
            "resilience.breaker_transitions{breaker=kernel,state=open}"
        ] == 1.0
        assert metrics["histograms"][
            "service.solve.seconds{backend=dinic}"
        ]["count"] == 1


@pytest.mark.parametrize("module_name", ["repro", "repro.obs", "repro.resilience"])
def test_every_exported_name_resolves(module_name):
    import importlib

    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


class TestTraceDumpAcceptsTelemetry:
    """tools/trace_dump.py unwraps a full telemetry document."""

    @pytest.fixture(scope="class")
    def trace_dump(self):
        import importlib.util
        import sys
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "tools" / "trace_dump.py"
        spec = importlib.util.spec_from_file_location("trace_dump_under_test", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
            yield module
        finally:
            sys.modules.pop(spec.name, None)

    def _span(self):
        return {"name": "batch.solve", "duration_s": 0.002,
                "self_time_s": 0.002, "attributes": {}, "children": []}

    def test_telemetry_document_unwraps_to_embedded_trace(self, trace_dump):
        document = {
            "schema": "repro.telemetry/v1",
            "service": "batch",
            "trace": {"schema": "repro.trace/v1", "spans": [self._span()]},
        }
        assert "batch.solve" in trace_dump.render_document(document)

    def test_plain_trace_document_still_renders(self, trace_dump):
        document = {"schema": "repro.trace/v1", "spans": [self._span()]}
        assert "batch.solve" in trace_dump.render_document(document)

    def test_error_names_both_schemas(self, trace_dump):
        with pytest.raises(ValueError) as excinfo:
            trace_dump.load_spans({"unrelated": 1})
        message = str(excinfo.value)
        assert "repro.trace/v1" in message
        assert "repro.telemetry/v1" in message

    def test_unknown_wrapper_schema_rejected(self, trace_dump):
        document = {"schema": "other/v9", "trace": {"spans": []}}
        with pytest.raises(ValueError):
            trace_dump.load_spans(document)
