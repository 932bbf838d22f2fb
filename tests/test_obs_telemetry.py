"""One telemetry document shape across all three solving services.

``BatchReport`` (sharded requests included), ``StreamingSession`` and
``ProblemReport`` each expose ``telemetry()``; every document must share
the pinned ``repro.telemetry/v1`` top-level key set and survive a JSON
round trip unchanged, so a single dashboard/exporter understands any
solving path.  Cache-bearing services (batch, streaming) must also
mirror their ``CompiledCircuitCache.stats()`` into registry gauges when
obs is on.
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
