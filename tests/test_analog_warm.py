"""The warm DC state each compiled circuit keeps between solves.

Every :class:`~repro.analog.compiler.CompiledMaxFlowCircuit` carries one
:class:`~repro.circuit.dc.WarmOperatingPoint`: its base LU factorisation and
the diode pattern of its last converged solve, under a lock.  Both ways of
solving a compiled circuit settle through it: ``solve_compiled`` (the batch
service's cache hits) and ``resolve`` (streaming sessions, analog shards).
A repeat solve of an unchanged circuit is one iteration with no
factorisation, and it must give exactly the answer of the first solve.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import threading

import numpy as np
import pytest

import conformance
from seeding import derive_seed

from repro.analog import AnalogMaxFlowSolver
from repro.analog.compiler import CompiledMaxFlowCircuit
from repro.graph import grid_graph, rmat_graph
from repro.resilience.faults import inject_faults
from repro.service import AnalogBackend, CompiledCircuitCache, SolveRequest
from repro.service import backends as backends_module

#: The serving mix: 8x12 grids (272 edges), (inner, terminal) capacities.
SERVING_VARIANTS = ((1.0, None), (1.0, 5.0), (2.0, None), (2.0, 12.0))
SERVING_GRIDS = [
    pytest.param(variant, draw, id=f"grid8x12-v{variant}-d{draw}")
    for variant in range(len(SERVING_VARIANTS))
    for draw in range(4)
]
ANALOG_CASES = [
    pytest.param(instance, id=instance.name)
    for instance in conformance.build_corpus()
    if instance.analog_ok
]
RTOL = 1e-12


def serving_grid(variant: int, draw: int):
    capacity, terminal = SERVING_VARIANTS[variant]
    return grid_graph(
        8, 12, capacity=capacity, terminal_capacity=terminal,
        seed=derive_seed("serving-grid", variant, draw), capacity_jitter=0.5,
    )


def assert_same_answer(result, reference) -> None:
    """Flow value and every edge flow agree to ``RTOL`` of the flow value."""
    scale = max(1.0, abs(reference.flow_value))
    assert abs(result.flow_value - reference.flow_value) <= RTOL * scale
    assert result.edge_flows.keys() == reference.edge_flows.keys()
    for index, flow in reference.edge_flows.items():
        assert abs(result.edge_flows[index] - flow) <= RTOL * scale, index


def assert_settled_in_one_solve(solution) -> None:
    """One iteration, one triangular solve: no factorisation, no SMW update."""
    assert solution.iterations == 1
    assert solution.refactorizations == 0
    assert solution.smw_solves == 0


def assert_warm_hit(result) -> None:
    assert result.cache_hit
    assert_settled_in_one_solve(result.detail.dc_solution)


class TestHitsRepeatTheMiss:
    @pytest.mark.parametrize("variant, draw", SERVING_GRIDS)
    def test_serving_grid(self, variant, draw):
        backend = AnalogBackend(cache=CompiledCircuitCache())
        network = serving_grid(variant, draw)
        miss = backend.solve(SolveRequest(network=network))
        assert miss.ok and not miss.cache_hit
        for _ in range(3):
            # A snapshot has the same digest but is a distinct object.
            hit = backend.solve(SolveRequest(network=network.snapshot()))
            assert hit.ok
            assert_warm_hit(hit)
            assert_same_answer(hit, miss)

    @pytest.mark.parametrize("quantize", [True, False], ids=["quantized", "exact-levels"])
    @pytest.mark.parametrize("instance", ANALOG_CASES)
    def test_conformance_corpus(self, instance, quantize):
        backend = AnalogBackend(
            solver=AnalogMaxFlowSolver(quantize=quantize), cache=CompiledCircuitCache()
        )
        options = {"vflow_v": 6.0}
        miss = backend.solve(SolveRequest(network=instance.network, options=options))
        assert miss.ok and not miss.cache_hit
        for _ in range(2):
            hit = backend.solve(SolveRequest(network=instance.network, options=options))
            assert hit.ok
            if instance.name == "disconnected-st":
                # Never compiled, so never cached: a zero answer each time.
                assert not hit.cache_hit and hit.flow_value == 0.0
            else:
                assert_warm_hit(hit)
            assert_same_answer(hit, miss)

    def test_hit_runs_no_connectivity_bfs(self, monkeypatch):
        calls = []
        connected = backends_module.is_source_sink_connected

        def counting(network):
            calls.append(network)
            return connected(network)

        monkeypatch.setattr(backends_module, "is_source_sink_connected", counting)
        backend = AnalogBackend(cache=CompiledCircuitCache())
        network = serving_grid(1, 0)
        assert not backend.solve(SolveRequest(network=network)).cache_hit
        assert len(calls) == 1
        hit = backend.solve(SolveRequest(network=network.snapshot()))
        assert hit.cache_hit
        assert len(calls) == 1

    def test_corrupt_readout_fault_fires_on_a_hit(self):
        backend = AnalogBackend(cache=CompiledCircuitCache())
        network = serving_grid(0, 1)
        miss = backend.solve(SolveRequest(network=network))
        with inject_faults("kind=corrupt,site=analog-readout,relative_error=0.5,times=0"):
            hit = backend.solve(SolveRequest(network=network))
        assert_warm_hit(hit)
        assert hit.flow_value == pytest.approx(1.5 * miss.flow_value, rel=1e-12)
        for index, flow in miss.edge_flows.items():
            assert hit.edge_flows[index] == pytest.approx(1.5 * flow, rel=1e-12, abs=1e-15)


class _GatedLock:
    """A lock whose first holder waits inside it until the test releases it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.held = threading.Event()
        self.contended = threading.Event()
        self.release = threading.Event()

    def __enter__(self):
        if self.held.is_set():
            self.contended.set()
        self._lock.acquire()
        if not self.held.is_set():
            self.held.set()
            assert self.release.wait(timeout=60)
        return self

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class TestOneCircuitManyThreads:
    def test_second_solve_waits_for_the_first(self):
        solver = AnalogMaxFlowSolver()
        network = serving_grid(0, 0)
        cold = solver.solve_compiled(solver.compile(network))
        assert cold.dc_solution.iterations > 1
        compiled = solver.compile(network)
        gate = _GatedLock()
        compiled.warm_dc.lock = gate
        results = [None, None]

        def run(slot: int) -> None:
            results[slot] = solver.solve_compiled(compiled)

        first = threading.Thread(target=run, args=(0,))
        first.start()
        assert gate.held.wait(timeout=60)
        second = threading.Thread(target=run, args=(1,))
        second.start()
        assert gate.contended.wait(timeout=60)
        # The first waits inside the lock and the second is blocked on it.
        assert results == [None, None]
        gate.release.set()
        first.join(timeout=60)
        second.join(timeout=60)
        assert not first.is_alive() and not second.is_alive()
        for result in results:
            assert_same_answer(result, cold)
        assert results[0].dc_solution.iterations == cold.dc_solution.iterations
        # The second started where the first settled.
        assert_settled_in_one_solve(results[1].dc_solution)


    def test_threads_sharing_a_cached_circuit(self):
        backend = AnalogBackend(cache=CompiledCircuitCache())
        network = serving_grid(2, 1)
        cold = AnalogMaxFlowSolver().solve_compiled(AnalogMaxFlowSolver().compile(network))
        results = []
        errors = []

        def client() -> None:
            try:
                for _ in range(5):
                    results.append(backend.solve(SolveRequest(network=network.snapshot())))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 30
        for result in results:
            assert result.ok
            assert_same_answer(result, cold)
        # Concurrent misses may each compile, but a circuit settles cold
        # once: every other solve of it starts where that one settled.
        cold_solves = [r for r in results if r.detail.dc_solution.iterations > 1]
        assert len(cold_solves) == len({id(r.detail.compiled) for r in results})
        for result in results:
            if all(result is not r for r in cold_solves):
                assert_settled_in_one_solve(result.detail.dc_solution)


class TestFallbackAndCopies:
    def test_non_converged_solve_steps_on_a_copy(self):
        solver = AnalogMaxFlowSolver()
        network = serving_grid(2, 0)
        reference = solver.solve_compiled(solver.compile(network))
        assert reference.dc_solution.iterations > 1
        compiled = solver.compile(network)
        compiled.warm_dc.max_iterations = 1
        result = solver.solve_compiled(compiled)
        assert result.dc_solution.converged
        assert result.compiled is not compiled
        assert result.compiled.warm_dc is not compiled.warm_dc
        assert compiled.warm_dc.states is None  # the failed solve stored nothing
        assert result.flow_value == pytest.approx(reference.flow_value, rel=1e-6)

    def test_failed_warm_resolve_keeps_the_pattern(self):
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        network = rmat_graph(30, 110, seed=13)
        compiled = solver.compile(network)
        solver.resolve(compiled)
        settled = compiled.warm_dc.states.copy()
        edited = network.snapshot()
        # Uneven: clamp voltages are normalised by the largest capacity.
        for edge in list(edited.edges())[::2]:
            edited.set_capacity(edge.index, edge.capacity * 0.3)
        compiled.warm_dc.max_iterations = 1
        result = solver.resolve(compiled, network=edited)
        assert result.compiled is not compiled
        assert np.array_equal(compiled.warm_dc.states, settled)
        cold_solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        cold = cold_solver.resolve(cold_solver.compile(edited))
        assert result.flow_value == pytest.approx(cold.flow_value, rel=1e-6)

    def test_deep_copy_of_a_settled_circuit_starts_cold(self):
        solver = AnalogMaxFlowSolver()
        compiled = solver.compile(serving_grid(0, 2))
        first = solver.solve_compiled(compiled)
        twin = copy.deepcopy(compiled)  # a live SuperLU factorisation is held
        assert twin.warm_dc is not compiled.warm_dc
        assert twin.warm_dc.states is None
        again = solver.solve_compiled(twin)
        assert again.dc_solution.iterations == first.dc_solution.iterations
        assert_same_answer(again, first)

    def test_warm_state_is_left_out_of_eq_repr_and_init(self):
        field = {f.name: f for f in dataclasses.fields(CompiledMaxFlowCircuit)}["warm_dc"]
        assert (field.compare, field.repr, field.init) == (False, False, False)
        solver = AnalogMaxFlowSolver()
        compiled = solver.compile(serving_grid(1, 1))
        solver.solve_compiled(compiled)
        assert "warm_dc" not in repr(compiled)


class TestResolveSharesTheWarmState:
    def test_resolve_then_solve_compiled(self):
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        compiled = solver.compile(rmat_graph(30, 110, seed=13))
        first = solver.resolve(compiled)
        pattern = np.fromiter(first.dc_solution.diode_states.values(), dtype=bool)
        assert np.array_equal(compiled.warm_dc.states, pattern)
        for again in (solver.solve_compiled(compiled), solver.resolve(compiled)):
            assert_settled_in_one_solve(again.dc_solution)
            assert_same_answer(again, first)

    def test_resolve_without_previous_resumes_from_the_circuit(self):
        solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        network = rmat_graph(30, 110, seed=13)
        compiled = solver.compile(network)
        solver.resolve(compiled)
        edited = network.snapshot()
        edited.set_capacity(3, edited.edge(3).capacity * 1.5)
        warm = solver.resolve(compiled, network=edited)
        assert warm.dc_solution.refactorizations == 0
        cold_solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        cold = cold_solver.resolve(cold_solver.compile(edited))
        assert warm.flow_value == pytest.approx(cold.flow_value, abs=1e-9)
