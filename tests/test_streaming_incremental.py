"""Incremental-vs-cold equivalence for the streaming subsystem.

Randomized update streams (mixed capacity increases/decreases, edge inserts
and removals) drive the graph update log, the classical incremental engine,
the analog warm re-solve path and the streaming session, asserting at every
revision that the incrementally maintained solution matches a from-scratch
solve of a snapshot:

* classical: flow values agree to 1e-9 (both are exact algorithms) and the
  repaired flow is feasible;
* analog: the warm re-solve matches a cold compile+solve of the same
  configuration.  On instances with a unique optimal flow the agreement is
  1e-9; on random instances with degenerate (non-unique) interior optima the
  two solves may settle on different — equally valid — operating points,
  whose read-out values differ by at most the substrate's bleed-resistor
  leakage (asserted at 1e-4 relative; see ``docs/architecture.md``).
"""

from __future__ import annotations

import random

import pytest

from seeding import derive_seed

from repro.analog import AnalogMaxFlowSolver
from repro.errors import EdgeNotFoundError, InvalidGraphError, SolveTimeoutError
from repro.flows import kernel as kernel_module
from repro.flows.dinic import Dinic
from repro.flows.incremental import IncrementalMaxFlow
from repro.flows.kernel import FlatResidual
from repro.flows.registry import solve_max_flow
from repro.graph import FlowNetwork, MutableFlowNetwork, grid_graph, rmat_graph
from repro.graph.updates import CapacityUpdate, EdgeInsert, EdgeRemove
from repro.resilience.faults import inject_faults
from repro.resilience.policy import Deadline, deadline_scope
from repro.service import CompiledCircuitCache, StreamingSession, push_all


def random_update_batch(dynamic: MutableFlowNetwork, rng: random.Random, size=4):
    """A valid random batch mixing re-weightings, removals and inserts."""
    events, touched = [], set()
    for _ in range(rng.randint(1, size)):
        # Skip zero-capacity edges: when the batch is generated against a
        # probe copy of a session's network, those may be removal tombstones
        # that the session itself would (correctly) refuse to update.
        live = [
            e.index
            for e in dynamic.live_edges()
            if e.index not in touched and e.capacity > 0
        ]
        kind = rng.random()
        if kind < 0.55 and live:
            index = rng.choice(live)
            touched.add(index)
            old = dynamic.network.edge(index).capacity
            factor = rng.choice([0.0, 0.1, 0.5, 0.9, 1.1, 2.0, 5.0])
            events.append(CapacityUpdate(index, round(old * factor, 6)))
        elif kind < 0.8 and live:
            index = rng.choice(live)
            touched.add(index)
            events.append(EdgeRemove(index))
        else:
            tail, head = rng.sample(dynamic.network.vertices(), 2)
            events.append(EdgeInsert(tail, head, rng.uniform(0.5, 10.0)))
    return events


# ----------------------------------------------------------------------
# Graph layer
# ----------------------------------------------------------------------


class TestMutableFlowNetwork:
    def test_snapshot_is_deep_and_preserves_indices(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 1.0)
        snap = g.snapshot()
        g.set_capacity(0, 9.0)
        assert snap.edge(0).capacity == 2.0
        assert [e.index for e in snap.edges()] == [0, 1]
        assert snap.edge(0) is not g.edge(0)

    def test_copy_delegates_to_snapshot(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 3.0)
        clone = g.copy()
        g.set_capacity(0, 1.0)
        assert clone.edge(0).capacity == 3.0

    def test_revision_counters_and_structural_flag(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 1.0)
        dyn = MutableFlowNetwork(g)
        batch = dyn.apply([CapacityUpdate(0, 5.0)])
        assert (dyn.revision, dyn.structural_revision) == (1, 0)
        assert not batch.structural and batch.capacity_only
        batch = dyn.apply([EdgeInsert("a", "b", 1.0), EdgeInsert("b", "t", 1.0)])
        assert (dyn.revision, dyn.structural_revision) == (2, 1)
        assert batch.structural
        batch = dyn.apply([EdgeRemove(2)])
        assert (dyn.revision, dyn.structural_revision) == (3, 1)
        assert not batch.structural  # removal is a capacity-0 tombstone
        assert dyn.is_removed(2)
        assert dyn.network.edge(2).capacity == 0.0

    def test_caller_network_is_not_mutated(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 2.0)
        dyn = MutableFlowNetwork(g)
        dyn.apply([CapacityUpdate(0, 7.0)])
        assert g.edge(0).capacity == 2.0

    def test_invalid_batches_leave_network_untouched(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 2.0)
        dyn = MutableFlowNetwork(g)
        with pytest.raises(EdgeNotFoundError):
            dyn.apply([CapacityUpdate(0, 5.0), CapacityUpdate(7, 1.0)])
        assert dyn.network.edge(0).capacity == 2.0 and dyn.revision == 0
        with pytest.raises(InvalidGraphError):
            dyn.apply([CapacityUpdate(0, -1.0)])
        with pytest.raises(EdgeNotFoundError):
            dyn.apply([EdgeRemove(0), CapacityUpdate(0, 1.0)])
        assert dyn.revision == 0 and not dyn.is_removed(0)

    def test_infinite_capacity_transition_is_structural(self):
        g = FlowNetwork()
        g.add_edge("s", "t", 2.0)
        dyn = MutableFlowNetwork(g)
        batch = dyn.apply([CapacityUpdate(0, float("inf"))])
        assert batch.structural


# ----------------------------------------------------------------------
# Classical layer
# ----------------------------------------------------------------------


class TestIncrementalMaxFlow:
    def test_randomized_streams_match_cold_solves(self):
        rng = random.Random(2015)
        for _ in range(12):
            g = rmat_graph(
                rng.randint(12, 40), rng.randint(40, 160), seed=rng.randint(0, 10**6)
            )
            dyn = MutableFlowNetwork(g)
            engine = IncrementalMaxFlow(dyn, validate=True)
            for _ in range(8):
                result = engine.push(random_update_batch(dyn, rng))
                cold = solve_max_flow(dyn.snapshot(), algorithm="dinic")
                assert result.flow_value == pytest.approx(
                    cold.flow_value, abs=1e-9, rel=1e-9
                )

    def test_warm_path_is_used_for_small_deltas(self):
        g = rmat_graph(30, 120, seed=5)
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn)
        result = engine.push([CapacityUpdate(0, g.edge(0).capacity * 2)])
        assert result.algorithm == "incremental-dinic"
        assert engine.warm_solves == 1

    def test_large_deltas_cut_over_to_cold(self):
        g = rmat_graph(20, 60, seed=5)
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn, cold_ratio=0.1)
        events = [
            CapacityUpdate(e.index, e.capacity * 0.5) for e in g.edges()[:30]
        ]
        result = engine.push(events)
        assert result.algorithm == "dinic"
        assert engine.cold_solves == 2  # initial + cutover

    def test_decrease_drains_overflow_exactly(self):
        # s -> a -> t carrying 2; cut a->t to 0.5: repair must drain 1.5.
        g = FlowNetwork()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 2.0)
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn, cold_ratio=1.0, validate=True)
        assert engine.result.flow_value == 2.0
        result = engine.push([CapacityUpdate(1, 0.5)])
        assert result.flow_value == pytest.approx(0.5, abs=1e-12)
        assert engine.warm_solves == 1

    def test_reroute_prefers_keeping_flow(self):
        # Two parallel a->t edges; cutting one reroutes onto the other.
        g = FlowNetwork()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 2.0)
        g.add_edge("a", "t", 2.0)
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn, cold_ratio=1.0, validate=True)
        assert engine.result.flow_value == 2.0
        result = engine.push([CapacityUpdate(1, 0.0)])
        assert result.flow_value == pytest.approx(2.0, abs=1e-12)

    def test_insert_with_new_vertex_resumes_augmentation(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 1.0)
        g.add_edge("a", "t", 1.0)
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn, cold_ratio=1.0, validate=True)
        result = engine.push(
            [EdgeInsert("s", "b", 3.0), EdgeInsert("b", "t", 2.5)]
        )
        assert result.flow_value == pytest.approx(3.5, abs=1e-12)
        assert result.algorithm == "incremental-dinic"


class TestKernelIncremental:
    """Flat-array export/import round trip under randomized edit streams.

    The kernel-backed engine repairs on an object residual that is exported
    to flat arrays, augmented there, and stored back after every warm
    apply; these streams prove the round trip preserves residual state —
    any drift would desynchronise the maintained flow from a cold solve.
    """

    def test_kernel_backed_streams_match_cold_solves(self):
        rng = random.Random(derive_seed("kernel-incremental"))
        saw_warm = False
        for _ in range(6):
            g = rmat_graph(
                rng.randint(15, 40), rng.randint(50, 150), seed=rng.randint(0, 10**6)
            )
            dyn = MutableFlowNetwork(g)
            engine = IncrementalMaxFlow(dyn, algorithm="kernel", validate=True)
            for _ in range(6):
                result = engine.push(random_update_batch(dyn, rng))
                cold = solve_max_flow(dyn.snapshot(), algorithm="kernel")
                reference = solve_max_flow(dyn.snapshot(), algorithm="dinic")
                assert result.flow_value == pytest.approx(
                    cold.flow_value, abs=1e-9, rel=1e-9
                )
                assert result.flow_value == pytest.approx(
                    reference.flow_value, abs=1e-9, rel=1e-9
                )
            saw_warm = saw_warm or engine.warm_solves > 0
        assert saw_warm, "streams never exercised the warm kernel path"

    def test_kernel_warm_repair_reports_incremental(self):
        g = rmat_graph(30, 120, seed=derive_seed("kernel-warm"))
        dyn = MutableFlowNetwork(g)
        engine = IncrementalMaxFlow(dyn, algorithm="kernel", validate=True)
        result = engine.push([CapacityUpdate(0, g.edge(0).capacity * 2)])
        assert result.algorithm == "incremental-dinic"
        assert engine.warm_solves == 1 and engine.cold_solves == 1

    def test_kernel_engine_matches_reference_engine(self):
        """Same stream through a "kernel" and a "dinic" engine.

        The two differ only in their cold solves; both repair warm on one
        engine.  Both must walk the same stream to identical flow values.
        """
        events_seed = derive_seed("kernel-vs-reference")

        def run_stream(algorithm: str) -> list:
            rng = random.Random(events_seed)
            g = rmat_graph(25, 90, seed=events_seed)
            dyn = MutableFlowNetwork(g)
            engine = IncrementalMaxFlow(dyn, algorithm=algorithm, validate=True)
            return [
                engine.push(random_update_batch(dyn, rng)).flow_value
                for _ in range(6)
            ]

        kernel_values = run_stream("kernel")
        reference_values = run_stream("dinic")
        assert kernel_values == pytest.approx(reference_values, abs=1e-9, rel=1e-9)


@pytest.fixture
def lowerings(monkeypatch):
    """Count :meth:`FlatResidual.from_residual` calls (warm kernel lowerings)."""
    calls = []
    export = FlatResidual.from_residual.__func__

    def counting(cls, residual):
        calls.append(residual)
        return export(cls, residual)

    monkeypatch.setattr(FlatResidual, "from_residual", classmethod(counting))
    return calls


class TestWarmGate:
    """One level search gates the warm kernel augmentation.

    From 2,000 edges a push that leaves no augmenting path lowers nothing,
    whatever engine the session names, and a push that leaves one lowers
    the residual once.  Below that size a push augments in blocking-flow
    phases and lowers nothing.  Counted in calls, not clocks.
    """

    @pytest.mark.parametrize("backend", ["dinic", "kernel"])
    def test_a_closed_gate_lowers_nothing_an_open_one_lowers_once(self, lowerings, backend):
        g = grid_graph(24, 30)  # 2,124 edges; every column of unit edges is a min cut
        session = StreamingSession(g, backend=backend, cold_ratio=1.0, validate=True)
        assert session.flow_value == pytest.approx(24.0)
        feed = next(e for e in g.edges() if e.tail == "s")
        inner = next(e for e in g.edges() if e.tail != "s" and e.head != "t")
        last = next(e.tail for e in g.edges() if e.head == "t")
        lowerings.clear()  # a "kernel" session opens on a kernel solve
        delta = session.push([CapacityUpdate(feed.index, 2 * feed.capacity)])  # cut binds
        assert (delta.warm, len(lowerings)) == (True, 0)
        assert delta.flow_value == pytest.approx(24.0)
        delta = session.push([CapacityUpdate(inner.index, 0.5)])  # repaired, no path left
        assert (delta.warm, len(lowerings)) == (True, 0)
        assert delta.flow_value == pytest.approx(23.5)
        delta = session.push([EdgeInsert("s", last, 1.0)])  # opens s -> last -> t
        assert (delta.warm, len(lowerings)) == (True, 1)
        assert delta.flow_value == pytest.approx(24.5)

    @pytest.mark.parametrize("backend", ["dinic", "kernel"])
    def test_small_residuals_augment_without_lowering(self, lowerings, backend):
        g = FlowNetwork()
        g.add_edge("s", "a", 3.0)
        g.add_edge("a", "t", 2.0)
        session = StreamingSession(g, backend=backend, cold_ratio=1.0, validate=True)
        lowerings.clear()
        delta = session.push([CapacityUpdate(1, 4.0)])  # opens s -> a -> t
        assert (delta.warm, delta.flow_value, len(lowerings)) == (True, 3.0, 0)

    @pytest.mark.parametrize("backend", ["dinic", "kernel"])
    def test_a_push_searches_only_when_the_last_min_cut_may_open(self, lowerings, backend):
        g = grid_graph(24, 30)  # 2,124 edges; every column of unit edges is a min cut
        engine = IncrementalMaxFlow(MutableFlowNetwork(g), algorithm=backend, validate=True)
        feeds = [e.index for e in g.edges() if e.tail == "s"]
        inner = next(e.index for e in g.edges() if (e.tail, e.head) == ("v5_15", "v5_16"))
        vertical = [
            e.index for e in g.edges()
            if "t" not in (e.tail, e.head) and "s" not in (e.tail, e.head)
            and e.tail.split("_")[1] == e.head.split("_")[1]
        ]
        last = next(e.tail for e in g.edges() if e.head == "t")

        def push(events):
            before = (engine.level_searches, len(lowerings), engine.cold_solves)
            value = engine.push(events).flow_value
            return (
                engine.level_searches - before[0],
                len(lowerings) - before[1],
                engine.cold_solves - before[2],
                value,
            )

        lowerings.clear()  # a "kernel" engine opens on a kernel solve
        # After a cold solve the gate searches, and its cut is the witness.
        assert push([CapacityUpdate(feeds[0], 48.0)]) == (1, 0, 0, 24.0)
        # Raising a feed leaves every witness arc saturated: no search.
        assert push([CapacityUpdate(feeds[1], 48.0)]) == (0, 0, 0, 24.0)
        # The cancelled half unit frees a witness arc; the gate's search
        # finds no path and moves the witness to the column of the edit.
        assert push([CapacityUpdate(inner, 0.5)]) == (1, 0, 0, 23.5)
        # Raising that saturated cut edge: the gate, one lowering and the
        # finishing search.
        assert push([CapacityUpdate(inner, 1.0)]) == (2, 1, 0, 24.0)
        # An insert drops the witness, so its push searches.
        assert push([EdgeInsert("s", last, 1.0)]) == (2, 1, 0, 25.0)
        # A cutover (65% of the edges) solves cold, dropping the witness ...
        cutover = push([CapacityUpdate(i, 1.5) for i in vertical])
        assert (cutover[0], cutover[2:]) == (0, (1, 25.0))
        # ... so the next push searches again.
        assert push([CapacityUpdate(feeds[2], 48.0)]) == (1, 0, 0, 25.0)

    def test_a_grid_stream_lowers_once_per_open_gate(self, lowerings, monkeypatch):
        opened = []
        gate = IncrementalMaxFlow._search

        def recording(engine):
            reaches = gate(engine)
            opened.append(reaches)
            return reaches

        monkeypatch.setattr(IncrementalMaxFlow, "_search", recording)
        rng = random.Random(derive_seed("warm-gate-grid"))
        g = grid_graph(24, 30, seed=derive_seed("warm-gate-grid"), capacity_jitter=0.5)
        session = StreamingSession(g, backend="kernel", cold_ratio=1.0, validate=True)
        for _ in range(20):
            before = (len(opened), len(lowerings))
            edges = rng.sample(range(g.num_edges), 63)
            session.push([
                CapacityUpdate(i, session.network.edge(i).capacity * rng.choice([0.5, 2.0]))
                for i in edges
            ])
            gates = opened[before[0]:]
            # None when the last min cut stayed closed; else the gate, and
            # after an open one the finishing search, which finds nothing.
            assert gates in ([], [False], [True, False])
            assert len(lowerings) - before[1] == (gates[:1] == [True])
        assert True in opened and False in opened


class TestWarmDeadlinesAndFaults:
    def test_a_budget_spent_inside_the_compiled_augmentation(self, monkeypatch):
        """The budget runs out inside round 1: the push raises, the engine is
        stale, and the next push answers the exact cold value."""
        g = grid_graph(24, 30, seed=derive_seed("warm-deadline"), capacity_jitter=0.5)
        engine = IncrementalMaxFlow(MutableFlowNetwork(g), algorithm="dinic", cold_ratio=1.0)
        compiled = kernel_module.maximum_flow
        calls = []

        def expiring(*args):
            calls.append(args)
            deadline._expires_at = float("-inf")  # spent during this round
            return compiled(*args)

        monkeypatch.setattr(kernel_module, "maximum_flow", expiring)
        # A real-capacity feed into the last column raises the flow, and
        # round 1's floored integers leave a gap for the routing step.
        last = next(e.tail for e in engine.network.edges() if e.head == "t")
        with deadline_scope(60.0) as deadline:
            with pytest.raises(SolveTimeoutError, match="kernel compiled round"):
                engine.push([EdgeInsert("s", last, 7.0 / 3.0)])
        assert len(calls) == 1 and engine._stale
        monkeypatch.setattr(kernel_module, "maximum_flow", compiled)
        result = engine.push([])
        assert engine.cold_solves == 2 and not engine._stale
        expected = Dinic().solve(engine.network.snapshot()).flow_value
        assert result.flow_value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("backend", ["dinic", "kernel"])
    @pytest.mark.parametrize("order", [1, -1])
    def test_a_repair_that_cannot_cancel_counts_as_degraded(self, backend, order):
        """Both clips land before either repair, so the first cancellation
        finds too little flow left on the other clipped edge and the push
        is rebuilt cold."""
        g = FlowNetwork()
        for tail, head in (("s", "a"), ("a", "b"), ("b", "c"), ("c", "t")):
            g.add_edge(tail, head, 5.0)
        session = StreamingSession(g, backend=backend, cold_ratio=1.0, validate=True)
        delta = session.push([CapacityUpdate(1, 1.0), CapacityUpdate(2, 2.0)][::order])
        assert (delta.flow_value, delta.warm, session.degraded_pushes) == (1.0, False, 1)

    @pytest.mark.parametrize("backend", ["dinic", "kernel"])
    def test_a_warm_repair_fault_degrades_to_a_cold_rebuild(self, backend):
        g = grid_graph(5, 8, seed=derive_seed("warm-fault"), capacity_jitter=0.5)
        session = StreamingSession(g, backend=backend, cold_ratio=1.0, validate=True)
        last = next(e.tail for e in g.edges() if e.head == "t")
        with inject_faults("kind=error,site=warm-repair,times=1"):
            delta = session.push([EdgeInsert("s", last, 2.5)])
        assert not delta.warm and session.degraded_pushes == 1
        assert delta.result.detail.algorithm == backend
        expected = Dinic().solve(session.snapshot()).flow_value
        assert delta.flow_value == pytest.approx(expected, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Analog layer
# ----------------------------------------------------------------------


class TestAnalogWarmResolve:
    def test_warm_equals_cold_on_unique_optimum(self, paper_example):
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(paper_example)
        base = solver.resolve(compiled)
        edited = paper_example.snapshot()
        edited.set_capacity(0, edited.edge(0).capacity * 0.7)
        warm = solver.resolve(compiled, network=edited, previous=base)
        cold_solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        cold = cold_solver.resolve(cold_solver.compile(edited))
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-9)
        assert warm.dc_solution.diode_states == cold.dc_solution.diode_states

    def test_randomized_capacity_streams_track_cold(self):
        rng = random.Random(7)
        g = rmat_graph(40, 150, seed=21)
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(g)
        previous = solver.resolve(compiled)
        current = g
        for _ in range(4):
            edited = current.snapshot()
            for index in rng.sample(range(edited.num_edges), 7):
                factor = rng.choice([0.5, 0.8, 1.25, 2.0])
                edited.set_capacity(index, edited.edge(index).capacity * factor)
            warm = solver.resolve(compiled, network=edited, previous=previous)
            cold_solver = AnalogMaxFlowSolver(
                quantize=False, dedicated_clamp_sources=True
            )
            cold = cold_solver.resolve(cold_solver.compile(edited))
            assert warm.flow_value == pytest.approx(
                cold.flow_value, rel=1e-4, abs=1e-6
            )
            previous, current = warm, edited

    def test_warm_resolve_performs_no_refactorization(self):
        g = rmat_graph(30, 110, seed=13)
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(g)
        base = solver.resolve(compiled)
        edited = g.snapshot()
        edited.set_capacity(3, edited.edge(3).capacity * 1.5)
        warm = solver.resolve(compiled, network=edited, previous=base)
        assert warm.dc_solution.refactorizations == 0

    def test_resolve_requires_dedicated_clamps(self):
        from repro.errors import CircuitError

        g = rmat_graph(15, 40, seed=3)
        solver = AnalogMaxFlowSolver(quantize=False)
        compiled = solver.compile(g)
        edited = g.snapshot()
        edited.set_capacity(0, 1.0)
        with pytest.raises(CircuitError):
            solver.resolve(compiled, network=edited)

    def test_resolve_rejects_structural_updates(self):
        from repro.errors import CircuitError

        g = rmat_graph(15, 40, seed=3)
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(g)
        edited = g.snapshot()
        edited.add_edge("s", "t", 1.0)
        with pytest.raises(CircuitError):
            solver.resolve(compiled, network=edited)

    def test_resolve_rejects_in_place_structural_mutation(self):
        # compile() keeps a reference to the live network; the guard must
        # compare against the compile-time edge count, not that alias.
        from repro.errors import CircuitError

        g = rmat_graph(15, 40, seed=3)
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(g)
        solver.resolve(compiled)
        g.add_edge("s", "t", 5.0)
        with pytest.raises(CircuitError):
            solver.resolve(compiled, network=g)

    def test_dc_engine_cache_is_bounded(self):
        # The per-template engine cache must evict (each engine references
        # its template, so a weak mapping would retain LUs forever).
        from repro.circuit.dc import DCOperatingPoint

        dc = DCOperatingPoint()
        for i in range(dc._max_engines + 3):
            solver = AnalogMaxFlowSolver(quantize=False)
            compiled = solver.compile(rmat_graph(10, 25, seed=i))
            dc.solve(compiled.circuit, mna=compiled.mna())
        assert len(dc._engines) <= dc._max_engines


# ----------------------------------------------------------------------
# Service layer
# ----------------------------------------------------------------------


class TestStreamingSession:
    def test_randomized_streams_all_layers_agree(self):
        rng = random.Random(99)
        g = rmat_graph(25, 90, seed=17)
        classical = StreamingSession(g, backend="dinic")
        analog = StreamingSession(
            g,
            backend="analog",
            analog_solver=AnalogMaxFlowSolver(quantize=False),
        )
        for _ in range(6):
            dyn_probe = MutableFlowNetwork(classical.network, copy=True)
            events = random_update_batch(dyn_probe, rng, size=3)
            delta_c = classical.push(list(events))
            delta_a = analog.push(list(events))
            exact = solve_max_flow(classical.snapshot(), algorithm="dinic")
            assert delta_c.flow_value == pytest.approx(
                exact.flow_value, abs=1e-9, rel=1e-9
            )
            # The analog value carries the substrate's finite-drive error;
            # both sessions must agree on which instance they solved.
            assert delta_a.revision == delta_c.revision
            assert delta_a.flow_value <= exact.flow_value * 1.01 + 1e-6

    def test_capacity_only_pushes_are_warm_structural_recompile(self):
        g = rmat_graph(20, 70, seed=11)
        session = StreamingSession(
            g,
            backend="analog",
            analog_solver=AnalogMaxFlowSolver(quantize=False),
        )
        assert session.recompiles == 1  # the opening cold solve
        delta = session.push([CapacityUpdate(0, g.edge(0).capacity * 1.5)])
        assert delta.warm and not delta.recompiled
        delta = session.push([EdgeInsert("s", "t", 2.0)])
        assert not delta.warm and delta.recompiled
        delta = session.push([EdgeRemove(0)])  # tombstone: stays warm
        assert delta.warm and not delta.recompiled

    def test_sessions_never_share_mutable_state(self):
        # resolve() mutates the compiled circuit in place, so each session
        # must own its compiled circuit and solver.
        g = rmat_graph(20, 70, seed=11)
        solver = AnalogMaxFlowSolver(quantize=False)
        a = StreamingSession(g, backend="analog", analog_solver=solver)
        b = StreamingSession(g, backend="analog", analog_solver=solver)
        assert a._compiled is not b._compiled
        assert a.analog_solver is not b.analog_solver
        a.push([CapacityUpdate(0, g.edge(0).capacity * 5)])
        assert b.network.edge(0).capacity == g.edge(0).capacity
        assert b._compiled.network.edge(0).capacity == g.edge(0).capacity

    def test_classical_cold_solves_honor_backend_name(self):
        g = rmat_graph(20, 60, seed=5)
        session = StreamingSession(g, backend="push-relabel", cold_ratio=0.0)
        delta = session.push([CapacityUpdate(0, g.edge(0).capacity * 2)])
        assert delta.result.detail.algorithm == "push-relabel"
        warm_session = StreamingSession(g, backend="push-relabel", cold_ratio=1.0)
        warm = warm_session.push([CapacityUpdate(0, g.edge(0).capacity * 2)])
        assert warm.result.detail.algorithm == "incremental-dinic"
        exact = solve_max_flow(warm_session.snapshot(), algorithm="dinic")
        assert warm.flow_value == pytest.approx(exact.flow_value, abs=1e-9, rel=1e-9)

    def test_idempotent_push_does_not_recount_telemetry(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 3.0)
        g.add_edge("a", "t", 2.0)
        session = StreamingSession(g, backend="dinic", cold_ratio=1.0)
        session.push([CapacityUpdate(1, 3.5)])
        before = (
            session.warm_solves,
            session.cold_solves,
            session.total_solve_time_s,
        )
        delta = session.push([CapacityUpdate(1, 3.5)])  # value already current
        assert (
            session.warm_solves,
            session.cold_solves,
            session.total_solve_time_s,
        ) == before
        assert delta.warm and delta.flow_delta == 0.0
        assert delta.revision == session.revision == 2

    def test_delta_reports_changed_edge_flows(self):
        g = FlowNetwork()
        g.add_edge("s", "a", 2.0)
        g.add_edge("a", "t", 2.0)
        session = StreamingSession(g, backend="dinic", cold_ratio=1.0)
        delta = session.push([CapacityUpdate(1, 0.5)])
        assert delta.flow_delta == pytest.approx(-1.5)
        assert set(delta.changed_edge_flows) == {0, 1}
        assert delta.changed_edge_flows[1] == (2.0, 0.5)

    def test_editing_a_results_flows_touches_no_other_result(self):
        g = grid_graph(24, 30)  # these pushes repair without augmenting
        edge = {(e.tail, e.head): e.index for e in g.edges()}
        batches = [
            [CapacityUpdate(edge["v5_15", "v5_16"], 0.5)],
            [CapacityUpdate(edge["v9_20", "v9_21"], 0.5)],
            [CapacityUpdate(edge["v5_15", "v5_16"], 0.25)],
        ]
        clean = StreamingSession(g, backend="dinic", cold_ratio=1.0)
        expected = [clean.push(batch) for batch in batches]
        session = StreamingSession(g, backend="dinic", cold_ratio=1.0)
        first, second = (session.push(batch) for batch in batches[:2])
        for index in second.result.edge_flows:
            second.result.edge_flows[index] = -1.0
        third = session.push(batches[2])
        assert third.result.edge_flows == expected[2].result.edge_flows
        assert first.changed_edge_flows == expected[0].changed_edge_flows != {}

    def test_summary_counts_the_opening_solve(self):
        g = rmat_graph(15, 40, seed=2)
        session = StreamingSession(
            g, backend="analog", analog_solver=AnalogMaxFlowSolver(quantize=False)
        )
        summary = session.summary()
        assert summary["pushes"] == 1 and summary["cold_solves"] == 1

    def test_push_all_fans_out(self):
        g = rmat_graph(15, 40, seed=2)
        sessions = [
            StreamingSession(g, backend="dinic"),
            StreamingSession(g, backend="edmonds-karp"),
        ]
        batches = [[CapacityUpdate(0, 5.0)], [CapacityUpdate(0, 5.0)]]
        deltas = push_all(sessions, batches, max_workers=2)
        assert len(deltas) == 2
        assert deltas[0].flow_value == pytest.approx(deltas[1].flow_value)

    @pytest.mark.parametrize("count", [1, 2])
    def test_push_all_honours_the_callers_deadline(self, count):
        """An expired caller deadline stops fanned-out pushes too."""
        sessions = [
            StreamingSession(grid_graph(4, 6, seed=3), backend="dinic")
            for _ in range(count)
        ]
        # Touching every edge forces a cold re-solve, which checks the
        # deadline once per blocking-flow phase.
        batches = [
            [CapacityUpdate(e.index, 3 * e.capacity) for e in s.snapshot().edges()]
            for s in sessions
        ]
        deadline = Deadline(1e-9, label="caller")
        while not deadline.expired():
            pass
        with deadline_scope(deadline), pytest.raises(SolveTimeoutError):
            push_all(sessions, batches, max_workers=count)

    def test_unknown_backend_rejected(self):
        from repro.errors import AlgorithmError

        g = FlowNetwork()
        g.add_edge("s", "t", 1.0)
        with pytest.raises(AlgorithmError):
            StreamingSession(g, backend="simplex")


class TestCacheEvictions:
    def test_eviction_counter(self):
        cache = CompiledCircuitCache(max_entries=2)
        for key in "abc":
            cache.store(key, key)
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_batch_report_carries_eviction_stats(self):
        from repro.service import BatchSolveService

        g = FlowNetwork()
        g.add_edge("s", "t", 1.0)
        report = BatchSolveService(max_workers=1).solve_batch([g])
        assert "evictions" in report.cache_stats
        assert "evictions" in report.format()
