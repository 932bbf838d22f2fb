"""Tombstone semantics of the streaming update log (`graph/updates.py`).

An `EdgeRemove` is applied as a capacity-0 tombstone (edge indices must stay
stable for circuit-node names and cached sparsity patterns); a subsequent
`EdgeInsert` on the *same* (u, v) pair must create a fresh edge index while
the tombstone stays dead.  These tests pin down the index / signature /
revision bookkeeping of that sequence and its incremental-vs-cold solver
agreement.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import EdgeNotFoundError
from repro.flows.incremental import IncrementalMaxFlow
from repro.flows.registry import get_algorithm
from repro.graph import FlowNetwork, rmat_graph
from repro.graph.updates import (
    CapacityUpdate,
    EdgeInsert,
    EdgeRemove,
    MutableFlowNetwork,
)


def _diamond() -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "a", 3.0)
    g.add_edge("s", "b", 2.0)
    g.add_edge("a", "t", 2.0)
    g.add_edge("b", "t", 3.0)
    g.add_edge("a", "b", 1.0)
    return g


class TestRemoveThenReinsertSamePair:
    def test_reinsert_gets_fresh_index_and_tombstone_stays(self):
        dynamic = MutableFlowNetwork(_diamond())
        removed_index = 2  # a -> t
        batch = dynamic.apply([EdgeRemove(removed_index)])
        assert batch.removed_edges == (removed_index,)
        assert dynamic.is_removed(removed_index)
        assert dynamic.network.edge(removed_index).capacity == 0.0

        batch = dynamic.apply([EdgeInsert("a", "t", 4.5)])
        (edge,) = batch.inserted_edges
        assert edge.index == dynamic.network.num_edges - 1
        assert edge.index != removed_index
        assert dynamic.network.edge(edge.index).capacity == 4.5
        # The tombstone is still dead: same endpoints, zero capacity, and
        # excluded from the live view.
        assert dynamic.is_removed(removed_index)
        assert not dynamic.is_removed(edge.index)
        live = {e.index for e in dynamic.live_edges()}
        assert removed_index not in live
        assert edge.index in live

    def test_tombstone_stays_unwritable_after_reinsert(self):
        dynamic = MutableFlowNetwork(_diamond())
        dynamic.apply([EdgeRemove(2), EdgeInsert("a", "t", 4.5)])
        with pytest.raises(EdgeNotFoundError):
            dynamic.apply([CapacityUpdate(2, 1.0)])
        with pytest.raises(EdgeNotFoundError):
            dynamic.apply([EdgeRemove(2)])
        # The replacement edge itself stays updatable.
        dynamic.apply([CapacityUpdate(5, 1.25)])
        assert dynamic.network.edge(5).capacity == 1.25

    def test_signature_and_revision_bookkeeping(self):
        dynamic = MutableFlowNetwork(_diamond())
        base_structural = dynamic.structural_revision

        # A finite-capacity removal is a pure capacity edit: the sparsity
        # pattern is stable.
        batch = dynamic.apply([EdgeRemove(2)])
        assert not batch.structural
        assert dynamic.structural_revision == base_structural

        # Re-inserting the same (u, v) pair appends a new edge: structural.
        batch = dynamic.apply([EdgeInsert("a", "t", 4.5)])
        assert batch.structural
        assert dynamic.structural_revision == base_structural + 1

        # Two networks evolved through the same event stream agree on the
        # structural revision.
        twin = MutableFlowNetwork(_diamond())
        twin.apply([EdgeRemove(2)])
        twin.apply([EdgeInsert("a", "t", 4.5)])
        assert twin.structural_revision == dynamic.structural_revision

    def test_infinite_edge_removal_is_structural(self):
        g = _diamond()
        g.add_edge("s", "t", math.inf)
        dynamic = MutableFlowNetwork(g)
        batch = dynamic.apply([EdgeRemove(5)])
        assert batch.structural  # the upper clamp disappears from the circuit

    def test_remove_insert_in_one_batch(self):
        dynamic = MutableFlowNetwork(_diamond())
        batch = dynamic.apply([EdgeRemove(2), EdgeInsert("a", "t", 6.0)])
        assert batch.structural
        assert batch.removed_edges == (2,)
        assert len(batch.inserted_edges) == 1
        assert batch.capacity_changes[2] == (2.0, 0.0)


class TestIncrementalVsColdThroughTombstones:
    def test_diamond_remove_reinsert_agrees_with_cold(self):
        dynamic = MutableFlowNetwork(_diamond())
        engine = IncrementalMaxFlow(dynamic, cold_ratio=1.0)
        result = engine.push([EdgeRemove(2)])
        cold = get_algorithm("dinic").solve(dynamic.snapshot())
        assert result.flow_value == pytest.approx(cold.flow_value, abs=1e-9)

        result = engine.push([EdgeInsert("a", "t", 4.5)])
        cold = get_algorithm("dinic").solve(dynamic.snapshot())
        assert result.flow_value == pytest.approx(cold.flow_value, abs=1e-9)

    def test_randomized_remove_reinsert_stream(self):
        rng = random.Random(20260730)
        network = rmat_graph(24, 70, seed=13)
        dynamic = MutableFlowNetwork(network)
        engine = IncrementalMaxFlow(dynamic, cold_ratio=1.0)
        removed: set = set()
        for _ in range(12):
            events = []
            live = [e for e in dynamic.live_edges()]
            victim = rng.choice(live)
            events.append(EdgeRemove(victim.index))
            removed.add(victim.index)
            # Re-insert an edge over a previously tombstoned pair half the
            # time, so indices interleave with tombstones.
            if removed and rng.random() < 0.5:
                back = dynamic.network.edge(rng.choice(sorted(removed)))
                events.append(
                    EdgeInsert(back.tail, back.head, rng.uniform(0.5, 5.0))
                )
            result = engine.push(events)
            cold = get_algorithm("dinic").solve(dynamic.snapshot())
            assert result.flow_value == pytest.approx(cold.flow_value, abs=1e-9)
            # Tombstones never resurface in the live view.
            live_now = {e.index for e in dynamic.live_edges()}
            assert not (removed & live_now)
