"""Differential fuzz gate for the flat-array kernel.

A seeded randomized corpus (``REPRO_TEST_SEED`` via ``tests/seeding.py``)
spanning seven instance families — grids, R-MAT, bipartite, zero-capacity
edges, disconnected s/t, parallel edges, single-edge — drives
:class:`repro.flows.kernel.KernelDinic` against *both* exact references
(Dinic and push-relabel), asserting per instance that the kernel flow

* has the reference flow value to 1e-9 relative,
* is feasible (per-edge capacity bounds + vertex conservation, via
  ``validate=True``),
* certifies maximality: the residual cut extracted from the kernel's own
  flow has the same value (max-flow = min-cut equality, matched against
  the cut extracted from the reference flow).

The kernel has two cores (:func:`repro.flows.kernel.pick_core`).  The
compiled core is held to the same contract, and to the failover
certificate, on every family with mixed int/float, parallel and
anti-parallel edges at capacity scales 2^-13 to 2^30; its guards (the
int32 range, deadlines between rounds, uncapacitated arcs) and its
routing step (real grids finish in one routed round, leftovers that
cannot be routed take a second round) are pinned one by one.

The lockstep core's exact relabels run one compiled reverse BFS; the
frontier-at-a-time loop it replaced stays here as the reference, and at
every relabel of cold and warm lockstep solves the two must return the
same labels and advance the operation counters alike.

The dtype-promotion guard pins the latent hazard the object-based path
never had: flat arrays built from int or mixed int/float capacities must
promote to float64, not truncate; ``INFINITY`` capacities must survive the
round trip as ``inf``.  Heavy sizes run behind ``--runslow``.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from typing import Tuple

import numpy as np
import pytest

from conformance import scaled_network
from seeding import derive_seed

from repro.errors import AlgorithmError, InfeasibleFlowError, SolveTimeoutError
from repro.flows import incremental as incremental_module
from repro.flows import kernel as kernel_module
from repro.flows.base import INFINITY, MaxFlowResult, validate_max_flow
from repro.flows.dinic import Dinic
from repro.flows.incremental import IncrementalMaxFlow
from repro.flows.kernel import FlatResidual, KernelDinic, _expand, pick_core
from repro.flows.mincut import min_cut_from_flow

kernel_module_maximum_flow = kernel_module.maximum_flow
from repro.flows.push_relabel import PushRelabel
from repro.graph import FlowNetwork, bipartite_graph, grid_graph, rmat_graph
from repro.graph.updates import CapacityUpdate, EdgeInsert, EdgeRemove, MutableFlowNetwork
from repro.resilience.failover import certify_flow_result
from repro.resilience.policy import deadline_scope

# ----------------------------------------------------------------------
# Instance families (each: seed, heavy -> FlowNetwork)
# ----------------------------------------------------------------------


def _grid(seed: int, heavy: bool) -> FlowNetwork:
    rng = random.Random(seed)
    rows = rng.randint(9, 14) if heavy else rng.randint(3, 7)
    cols = rng.randint(12, 20) if heavy else rng.randint(4, 9)
    return grid_graph(
        rows,
        cols,
        capacity=rng.uniform(1.0, 4.0),
        seed=seed,
        capacity_jitter=rng.uniform(0.0, 0.5),
    )


def _rmat(seed: int, heavy: bool) -> FlowNetwork:
    rng = random.Random(seed)
    n = rng.randint(90, 140) if heavy else rng.randint(15, 45)
    m = rng.randint(4 * n, 6 * n) if heavy else rng.randint(3 * n, 5 * n)
    return rmat_graph(n, m, seed=seed)


def _bipartite(seed: int, heavy: bool) -> FlowNetwork:
    rng = random.Random(seed)
    left = rng.randint(14, 22) if heavy else rng.randint(4, 9)
    right = rng.randint(14, 22) if heavy else rng.randint(4, 9)
    return bipartite_graph(
        left, right, seed=seed, connectivity=rng.uniform(0.3, 0.7)
    )


def _zero_capacity(seed: int, heavy: bool) -> FlowNetwork:
    """Random instance with ~25% of its edges zeroed out (live tombstones)."""
    rng = random.Random(seed)
    network = _rmat(seed, heavy)
    for index in rng.sample(range(network.num_edges), network.num_edges // 4):
        network.set_capacity(index, 0.0)
    return network


def _disconnected(seed: int, heavy: bool) -> FlowNetwork:
    """Source and sink in different components (max flow exactly 0)."""
    rng = random.Random(seed)
    network = FlowNetwork()
    for i in range(rng.randint(2, 5)):
        network.add_edge("s", f"a{i}", rng.uniform(0.5, 5.0))
        if i and rng.random() < 0.7:
            network.add_edge(f"a{i}", f"a{i - 1}", rng.uniform(0.5, 5.0))
    for j in range(rng.randint(2, 5)):
        network.add_edge(f"b{j}", "t", rng.uniform(0.5, 5.0))
        if j and rng.random() < 0.7:
            network.add_edge(f"b{j - 1}", f"b{j}", rng.uniform(0.5, 5.0))
    return network


def _parallel_edges(seed: int, heavy: bool) -> FlowNetwork:
    """Multigraph: every chosen vertex pair carries 2-3 parallel edges."""
    rng = random.Random(seed)
    network = FlowNetwork()
    vertices = ["s", "u", "v", "w", "x", "t"]
    pairs = [
        (a, b) for a in vertices for b in vertices if a != b and b != "s" and a != "t"
    ]
    for tail, head in rng.sample(pairs, rng.randint(6, len(pairs))):
        for _ in range(rng.randint(2, 3)):
            network.add_edge(tail, head, round(rng.uniform(0.25, 4.0), 3))
    if not network.has_edge("s", "u"):
        network.add_edge("s", "u", 1.5)
    if not network.has_edge("x", "t"):
        network.add_edge("x", "t", 1.5)
    return network


def _single_edge(seed: int, heavy: bool) -> FlowNetwork:
    rng = random.Random(seed)
    network = FlowNetwork()
    network.add_edge("s", "t", rng.choice([0.0, 1e-9, 4.5, 7, 2.0**40 + 0.5]))
    return network


FAMILIES = {
    "grid": _grid,
    "rmat": _rmat,
    "bipartite": _bipartite,
    "zero-capacity": _zero_capacity,
    "disconnected": _disconnected,
    "parallel-edges": _parallel_edges,
    "single-edge": _single_edge,
}

#: Families whose heavy variants are worth the --runslow budget.
HEAVY_FAMILIES = ("grid", "rmat", "bipartite", "zero-capacity")


def _assert_kernel_conforms(network: FlowNetwork) -> None:
    """The full differential contract on one instance."""
    kernel = KernelDinic().solve(network, validate=True)  # feasibility gate
    for reference in (Dinic(), PushRelabel()):
        expected = reference.solve(network)
        assert kernel.flow_value == pytest.approx(
            expected.flow_value, rel=1e-9, abs=1e-9
        ), (
            f"kernel {kernel.flow_value} vs {reference.name} "
            f"{expected.flow_value}"
        )
    # Maximality certificate: the cut of the kernel's *own* residual must
    # equal its flow value, and match the reference flow's cut.
    kernel_cut = min_cut_from_flow(network, kernel)
    reference_cut = min_cut_from_flow(network, Dinic().solve(network))
    assert kernel_cut.cut_value == pytest.approx(
        kernel.flow_value, rel=1e-9, abs=1e-9
    ), "kernel flow is not maximum: its residual cut exceeds its value"
    assert kernel_cut.cut_value == pytest.approx(
        reference_cut.cut_value, rel=1e-9, abs=1e-9
    )


# ----------------------------------------------------------------------
# The fuzz gate
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(3))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_matches_references(family, trial):
    seed = derive_seed("kernel-fuzz", family, trial)
    _assert_kernel_conforms(FAMILIES[family](seed, heavy=False))


@pytest.mark.slow
@pytest.mark.parametrize("trial", range(2))
@pytest.mark.parametrize("family", HEAVY_FAMILIES)
def test_kernel_matches_references_heavy(family, trial):
    seed = derive_seed("kernel-fuzz-heavy", family, trial)
    _assert_kernel_conforms(FAMILIES[family](seed, heavy=True))


# ----------------------------------------------------------------------
# The compiled core: scaled integer rounds, certified
# ----------------------------------------------------------------------

#: Capacity scales of the compiled-core differential: powers of two, so a
#: scaled instance is the base instance exactly, up to 2^30, where pair
#: sums pass scipy's int32 range and parallel-edge round-off passes the
#: cut check's 1e-12 slack.
SCALES = (-13, -6, 0, 6, 13, 20, 30)


@pytest.fixture
def compiled_only(monkeypatch):
    """Run every kernel solve on the compiled core."""
    monkeypatch.setattr(kernel_module, "pick_core", lambda flat: "compiled")


def _multigraph(family: str, trial: int, exponent: int) -> FlowNetwork:
    """A family member times ``2**exponent``, with parallel, anti-parallel and int edges.

    Three edges get a parallel twin and an anti-parallel one; about a third
    of all capacities become Python ints (at least 1).
    """
    seed = derive_seed("kernel-compiled", family, trial, exponent)
    rng = random.Random(seed)
    base = FAMILIES[family](seed, heavy=False)
    factor = 2.0**exponent
    network = scaled_network(base, factor)
    for edge in rng.sample(list(base.edges()), min(3, base.num_edges)):
        network.add_edge(edge.tail, edge.head, rng.uniform(0.5, 4.0) * factor)
        network.add_edge(edge.head, edge.tail, rng.uniform(0.5, 4.0) * factor)
    for edge in list(network.edges()):
        if rng.random() < 0.3:
            network.set_capacity(edge.index, max(1, round(edge.capacity)))
    return network


def _assert_certified(network: FlowNetwork, result: MaxFlowResult) -> None:
    """Matches Dinic to 1e-9 relative and passes the exact failover certificate."""
    expected = Dinic().solve(network).flow_value
    assert abs(result.flow_value - expected) <= 1e-9 * max(1.0, abs(expected)), (
        f"kernel {result.flow_value!r} vs dinic {expected!r}"
    )
    certify_flow_result(network, result.flow_value, result.edge_flows, exact=True)


class TestCompiledCore:
    """The compiled core answers exactly and certifies its own cut."""

    @pytest.mark.parametrize("exponent", SCALES)
    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_dinic_and_certifies(self, compiled_only, family, trial, exponent):
        network = _multigraph(family, trial, exponent)
        result = KernelDinic().solve(network, validate=True)
        _assert_certified(network, result)

    def test_integral_capacities_take_one_exact_round(self):
        network = bipartite_graph(12, 12, seed=derive_seed("kernel-integral"))
        flat = FlatResidual.from_network(network)
        assert pick_core(flat) == "compiled"
        assert flat.max_flow() == 1
        assert network.flow_value(flat.edge_flows()) == Dinic().solve(network).flow_value

    def test_real_capacities_refine_in_rounds(self):
        network = grid_graph(6, 9, seed=derive_seed("kernel-real"), capacity_jitter=0.5)
        flat = FlatResidual.from_network(network)
        assert flat.max_flow() == 1 and flat.routed
        _assert_certified(network, KernelDinic().solve(network))

    @pytest.mark.parametrize(
        "capacities",
        [(2**31 + 5,), (2**30, 2**30), (2**31 - 1, 2**31 - 1, 3)],
        ids=["one-edge-past-int32", "parallel-sum-2^31", "parallel-past-int32"],
    )
    def test_int32_guard(self, compiled_only, capacities):
        # scipy's solver keeps capacities in int32: 2^31 + 5 unscaled wraps
        # and answers 0 without an error.
        network = FlowNetwork()
        for capacity in capacities:
            network.add_edge("s", "a", capacity)
        network.add_edge("a", "t", 2**34)
        network.add_edge("t", "a", 2**31 - 1)  # anti-parallel: c(i,j) + c(j,i)
        result = KernelDinic().solve(network, validate=True)
        assert result.flow_value == sum(capacities)
        certify_flow_result(network, result.flow_value, result.edge_flows, exact=True)

    def test_expired_deadline_raises_before_round_one(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            kernel_module, "maximum_flow",
            lambda *args: calls.append(args) or kernel_module_maximum_flow(*args),
        )
        network = grid_graph(4, 6, seed=derive_seed("kernel-deadline"), capacity_jitter=0.5)
        flat = FlatResidual.from_network(network)
        before = flat.residual.copy()
        with deadline_scope(1e-6):
            time.sleep(1e-3)
            with pytest.raises(SolveTimeoutError):
                flat.compiled_max_flow()
        assert calls == []
        np.testing.assert_array_equal(flat.residual, before)

    def test_a_round_in_progress_overruns_the_deadline(self, monkeypatch):
        """The budget runs out inside round 1: it finishes, round 2 never starts."""
        network = grid_graph(6, 9, seed=derive_seed("kernel-real"), capacity_jitter=0.5)
        unlimited = FlatResidual.from_network(network)
        assert unlimited.compiled_max_flow() == 1 and unlimited.routed  # round 1 leaves a gap
        calls = []

        def expiring(*args):
            calls.append(args)
            deadline._expires_at = float("-inf")  # spent during this round
            return kernel_module_maximum_flow(*args)

        monkeypatch.setattr(kernel_module, "maximum_flow", expiring)
        flat = FlatResidual.from_network(network)
        with deadline_scope(60.0) as deadline:
            with pytest.raises(SolveTimeoutError, match="kernel compiled round"):
                flat.compiled_max_flow()
        assert len(calls) == 1
        assert flat.residual[1::2].sum() > 0.0  # round 1's flow was kept

    def test_unroutable_leftovers_take_a_second_round(self):
        """Round 1 (scale 1) sends 99 through ``s -> a``, leaving 1.2 on it and
        0.9 on each of ``a``'s two cut arcs: their 1.8 cannot pass ``s -> a``."""
        network = FlowNetwork()
        network.add_edge("s", "a", 100.2)
        network.add_edge("a", "x1", 50.9)
        network.add_edge("a", "x2", 49.9)
        network.add_edge("x1", "t", 1.5 * 2**29)
        network.add_edge("x2", "t", 1.5 * 2**29)
        flat = FlatResidual.from_network(network)
        assert flat.compiled_max_flow() == 2
        result = KernelDinic().solve(network, validate=True)
        assert result.flow_value == 100.2
        _assert_certified(network, result)

    def test_serve_large_grids_complete_in_one_round(self):
        """24x90 real grids, the served benchmark's shape: round 1, then routing."""
        base = grid_graph(24, 90, seed=derive_seed("kernel-serve-large"), capacity_jitter=0.5)
        expected = Dinic().solve(base).flow_value
        for exponent in (-6, 0, 13):
            network = scaled_network(base, 2.0**exponent)
            flat = FlatResidual.from_network(network)
            assert flat.max_flow() == 1 and flat.core == "compiled" and flat.routed
            result = KernelDinic().solve(network, validate=True)
            assert result.flow_value == pytest.approx(expected * 2.0**exponent, rel=1e-9)
            certify_flow_result(network, result.flow_value, result.edge_flows, exact=True)

    def test_uncapacitated_arcs_raise_before_round_one(self, monkeypatch):
        calls = []
        monkeypatch.setattr(kernel_module, "maximum_flow", lambda *args: calls.append(args))
        network = FlowNetwork()
        network.add_edge("s", "a", INFINITY)
        network.add_edge("a", "t", 2.5)
        flat = FlatResidual.from_network(network)
        before = flat.residual.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no int32 cast of an infinite pair
            with pytest.raises(AlgorithmError, match="finite"):
                flat.compiled_max_flow()
        assert calls == []
        np.testing.assert_array_equal(flat.residual, before)

    def test_a_network_without_edges_answers_zero(self, compiled_only):
        network = FlowNetwork()
        network.add_vertex("s")
        network.add_vertex("t")
        assert KernelDinic().solve(network, validate=True).flow_value == 0

    def test_uncapacitated_arcs_run_the_lockstep_core(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "b", INFINITY)
        network.add_edge("b", "t", 1.75)
        network.add_edge("s", "t", 2)
        flat = FlatResidual.from_network(network)
        assert pick_core(flat) == "lockstep"
        assert flat.max_flow() > 0 and flat.core == "lockstep"
        assert network.flow_value(flat.edge_flows()) == pytest.approx(3.75, abs=1e-12)

    def test_large_deep_and_wide_real_networks_run_the_lockstep_core(self):
        def pick(network):
            return pick_core(FlatResidual.from_network(network))

        seed = derive_seed("kernel-pick")
        assert pick(grid_graph(160, 160, seed=seed, capacity_jitter=0.5)) == "lockstep"
        # At most 60,000 edges, integral, shallow or thin: compiled.
        assert pick(grid_graph(128, 128, seed=seed, capacity_jitter=0.5)) == "compiled"
        assert pick(grid_graph(160, 160, capacity=2.0)) == "compiled"
        shallow = scaled_network(bipartite_graph(400, 400, seed=seed, connectivity=0.4), 1.37)
        assert shallow.num_edges > 60_000 and pick(shallow) == "compiled"
        thin = grid_graph(8, 3000, seed=seed, capacity_jitter=0.5)
        assert thin.num_edges > 60_000 and pick(thin) == "compiled"


class TestLockstepUnreachableSink:
    """The lockstep core moves nothing when the sink is unreachable.

    Flooding the source's component and draining it back left conservation
    round-off of about 1e-6 at capacity scale 2^30, against a tolerance of
    1e-9 on a zero flow.
    """

    @pytest.mark.parametrize("trial", range(25))
    def test_disconnected_at_scale_2_30_certifies(self, trial):
        base = FAMILIES["disconnected"](derive_seed("kernel-unreachable", trial), heavy=False)
        network = scaled_network(base, 2.0**30)
        flat = FlatResidual.from_network(network)
        before = flat.residual.copy()
        assert flat.lockstep_max_flow() == 0
        np.testing.assert_array_equal(flat.residual, before)
        flows = flat.edge_flows()
        certify_flow_result(network, network.flow_value(flows), flows, exact=True)


class TestValidateAtScale:
    """``validate=True`` scales its tolerances with the flow.

    An absolute 1e-6 is below the round-off of a correct flow of 5e11:
    these three compiled solves left conservation residue of 1.9e-6 to
    7.6e-6 and were rejected, though each passes the exact certificate.
    """

    @pytest.mark.parametrize("family, trial, exponent", [
        ("rmat", 10, 30), ("rmat", 14, 29), ("rmat", 22, 29),
    ])
    def test_large_correct_flows_validate(self, family, trial, exponent):
        network = _multigraph(family, trial, exponent)
        result = KernelDinic().solve(network, validate=True)
        _assert_certified(network, result)

    def test_a_planted_violation_still_raises(self):
        network = _multigraph("rmat", 10, 30)
        result = KernelDinic().solve(network)
        inner = next(
            edge.index for edge in network.edges()
            if result.edge_flows[edge.index] > 0.0
            and network.source not in (edge.tail, edge.head)
            and network.sink not in (edge.tail, edge.head)
        )
        flows = dict(result.edge_flows)
        flows[inner] -= 1e-8 * result.flow_value
        planted = MaxFlowResult(result.flow_value, flows, "planted")
        with pytest.raises(InfeasibleFlowError, match="conservation"):
            validate_max_flow(network, planted)


class TestCertifyAtScale:
    """The exact certificate counts a few ulp of slack as saturated.

    An exact flow can leave ``capacity - flow`` an ulp above zero, and from
    capacities of about 2^12 one ulp is above an absolute 1e-12, so
    ``min_cut_from_flow`` treats slack and reverse flow up to four ulp of
    the capacity as zero.  A real shortfall still leaves the sink reachable.
    """

    CAPACITY = 0.75 * 2.0**30  # one ulp is 2^-23, four are 4.8e-7

    def _two_paths(self, short: float) -> Tuple[FlowNetwork, dict]:
        network = FlowNetwork()
        for middle in ("a", "b"):
            network.add_edge("s", middle, self.CAPACITY)  # the min cut
            network.add_edge(middle, "t", 2 * self.CAPACITY)
        full, cut = self.CAPACITY, self.CAPACITY - short
        return network, {0: cut, 1: cut, 2: full, 3: full}

    def test_one_ulp_short_on_a_saturated_cut_edge_certifies(self):
        network, flows = self._two_paths(math.ulp(self.CAPACITY))
        certify_flow_result(network, network.flow_value(flows), flows, exact=True)

    def test_a_flow_1e_6_short_leaves_the_sink_reachable(self):
        network, flows = self._two_paths(1e-6)
        with pytest.raises(InfeasibleFlowError, match="sink reachable"):
            certify_flow_result(network, network.flow_value(flows), flows, exact=True)

    def test_an_uncapacitated_edge_with_room_stays_residual(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 5.0)
        network.add_edge("a", "t", INFINITY)  # math.ulp(inf) is inf: keeps 1e-12
        with pytest.raises(InfeasibleFlowError, match="sink reachable"):
            certify_flow_result(network, 4.0, {0: 4.0, 1: 4.0}, exact=True)


# ----------------------------------------------------------------------
# The warm engine: a level BFS gates one flat kernel augmentation
# ----------------------------------------------------------------------


def _warm_edits(network: FlowNetwork, rng: random.Random, factor: float, step: int) -> list:
    """One seeded edit batch for :class:`TestWarmEngine`.

    Re-weights (float and int), removes and switches finite<->``INFINITY``
    up to four live edges, and inserts an edge between existing vertices
    plus a two-edge detour through a new vertex.  At most one edge is
    uncapacitated at a time and never an ``s -> t`` one, so the max flow
    stays finite.
    """
    source, sink = network.source, network.sink
    uncapacitated = any(edge.capacity == INFINITY for edge in network.edges())
    live = [edge for edge in network.edges() if edge.capacity > 0]
    events = []
    for edge in rng.sample(live, min(len(live), rng.randint(1, 4))):
        kind = rng.random()
        if edge.capacity == INFINITY:
            events.append(CapacityUpdate(edge.index, rng.uniform(0.5, 4.0) * factor))
        elif kind < 0.15:
            events.append(EdgeRemove(edge.index))
        elif kind < 0.3 and not uncapacitated and (edge.tail, edge.head) != (source, sink):
            events.append(CapacityUpdate(edge.index, INFINITY))
            uncapacitated = True
        elif kind < 0.5:
            events.append(CapacityUpdate(edge.index, max(1, round(edge.capacity * 2))))
        else:
            scaled = edge.capacity * rng.choice([0.0, 0.3, 0.9, 1.1, 3.0])
            events.append(CapacityUpdate(edge.index, scaled))
    vertices = network.vertices()
    tail, head = rng.sample(vertices, 2)
    events.append(EdgeInsert(tail, head, rng.uniform(0.5, 4.0) * factor))
    fresh = f"w{step}"
    events.append(EdgeInsert(rng.choice([v for v in vertices if v != sink]), fresh,
                             rng.uniform(0.5, 4.0) * factor))
    events.append(EdgeInsert(fresh, rng.choice([v for v in vertices if v != source]),
                             rng.uniform(0.5, 4.0) * factor))
    return events


def _seeded_pushes(network: FlowNetwork, algorithm: str, seed: int, exponent: int,
                   pushes: int):
    """Yield the engine, its network and each result of a seeded stream.

    Even steps push their batch whole, so repairs can reroute over arcs
    inserted in the same batch.  Odd steps push their re-weightings and
    removals, then their inserts: the first of those adds no arcs, so it
    may be answered by the witness and return patched flows.
    """
    rng = random.Random(seed)
    dynamic = MutableFlowNetwork(network)
    engine = IncrementalMaxFlow(dynamic, algorithm=algorithm, cold_ratio=1.0, validate=True)
    for step in range(pushes):
        events = _warm_edits(dynamic.network, rng, 2.0**exponent, step)
        edits = [event for event in events if not isinstance(event, EdgeInsert)]
        inserts = [event for event in events if isinstance(event, EdgeInsert)]
        for batch in ((edits, inserts) if step % 2 else (events,)):
            yield engine, dynamic.network, engine.push(batch)


def _stream_matches_reference(network: FlowNetwork, algorithm: str, seed: int,
                              exponent: int, pushes: int = 5) -> None:
    """Push seeded edits through a warm engine; every revision is checked.

    Each pushed result matches a cold reference Dinic to 1e-9 relative,
    passes ``validate=True`` and the exact failover certificate, and its
    flows equal the maintained residual's, compared exactly.  The stream
    repairs warm at least once, and replayed with the witness forced open
    (every push then runs the gate's search) it returns the same values
    and flows.
    """
    seen = []
    for engine, current, result in _seeded_pushes(network, algorithm, seed, exponent, pushes):
        step = len(seen)
        expected = Dinic().solve(current.snapshot()).flow_value
        assert abs(result.flow_value - expected) <= 1e-9 * max(1.0, abs(expected)), (
            f"push {step}: warm {result.flow_value!r} vs dinic {expected!r}"
        )
        validate_max_flow(current, result)
        certify_flow_result(current, result.flow_value, result.edge_flows, exact=True)
        assert result.edge_flows == engine.edge_flows(), f"push {step}: patched flows drifted"
        seen.append((result.flow_value, result.edge_flows))
    assert engine.warm_solves >= 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalMaxFlow, "_witness_closed", lambda self: False)
        replayed = [
            (result.flow_value, result.edge_flows)
            for _, _, result in _seeded_pushes(network, algorithm, seed, exponent, pushes)
        ]
    assert replayed == seen


@pytest.fixture(params=["selected", "kernel"])
def warm_path(request, monkeypatch):
    """The warm augmentation as selected by size, or on the kernel at any size."""
    if request.param == "kernel":
        monkeypatch.setattr(incremental_module, "_KERNEL_EDGES", 0)
    return request.param


class TestWarmEngine:
    """Every classical stream repairs warm on one engine.

    Seeded streams over every family (with parallel, anti-parallel and int
    edges at scales 2^-13 to 2^30) and a deep real grid: re-weightings,
    removals, inserts that append arc pairs and vertices, and
    finite<->``INFINITY`` switches.  A ``"dinic"`` and a ``"kernel"``
    engine differ only in their cold solves.  The families are below the
    2,000 edges from which the kernel augments (and the witness answers),
    so they also run with the kernel forced; the deep grid is above it.
    """

    @pytest.mark.parametrize("algorithm", ["dinic", "kernel"])
    @pytest.mark.parametrize("exponent", SCALES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_streams_match_dinic_and_certify(self, warm_path, family, exponent, algorithm):
        seed = derive_seed("kernel-warm-stream", family, exponent)
        _stream_matches_reference(_multigraph(family, 0, exponent), algorithm, seed, exponent)

    @pytest.mark.parametrize("algorithm", ["dinic", "kernel"])
    @pytest.mark.parametrize("exponent", (-13, 0, 30))
    def test_deep_real_grid_streams(self, exponent, algorithm):
        seed = derive_seed("kernel-warm-deep", exponent)
        base = grid_graph(6, 130, seed=seed, capacity_jitter=0.5)  # 2,086 edges, depth 131
        _stream_matches_reference(scaled_network(base, 2.0**exponent), algorithm, seed, exponent)


# ----------------------------------------------------------------------
# Exact relabels: the compiled reverse BFS against the frontier loop
# ----------------------------------------------------------------------


def _frontier_bfs(flat: FlatResidual, root: int) -> np.ndarray:
    """Reference reverse BFS: one vectorised step per BFS level.

    The frontier loop the compiled ``FlatResidual._reverse_bfs`` replaced.
    For each frontier vertex the partner of every out-arc is the arc
    pointing at it, so predecessors are read with one gather.  Unreached
    vertices get ``4 * num_vertices``.
    """
    num_vertices = flat.num_vertices
    indptr = flat.indptr
    counter = flat.counter
    big = 4 * num_vertices
    dist = np.full(num_vertices, big, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        counter.queue_operations += int(frontier.size)
        starts = indptr[frontier]
        cnt = indptr[frontier + 1] - starts
        pos, _ = _expand(starts, cnt)
        if pos.size == 0:
            break
        arcs = flat.arcs_by_tail[pos]
        heads = flat.arc_head[arcs]
        counter.arc_scans += int(pos.size)
        preds = heads[(flat.residual[arcs ^ 1] > flat.eps) & (dist[heads] == big)]
        if preds.size == 0:
            break
        dist[preds] = depth
        frontier = np.unique(preds)
    return dist


@pytest.fixture
def checked_bfs(monkeypatch):
    """Check every exact relabel against :func:`_frontier_bfs`.

    Each call runs the reference first, on the same residual, then the
    compiled BFS from the same counters; the two must return the same
    int64 array and advance ``queue_operations`` and ``arc_scans`` alike.
    Returns the list the ``(flat, root)`` of every checked call goes to.
    """
    compiled = FlatResidual._reverse_bfs
    calls = []

    def both(flat, root):
        counter = flat.counter
        before = (counter.queue_operations, counter.arc_scans)
        expected = _frontier_bfs(flat, root)
        wanted = (counter.queue_operations, counter.arc_scans)
        counter.queue_operations, counter.arc_scans = before
        dist = compiled(flat, root)
        assert dist.dtype == np.int64
        np.testing.assert_array_equal(dist, expected)
        assert (counter.queue_operations, counter.arc_scans) == wanted
        calls.append((flat, root))
        return dist

    monkeypatch.setattr(FlatResidual, "_reverse_bfs", both)
    return calls


@pytest.fixture
def lockstep_only(monkeypatch):
    """Run every kernel solve, warm exports included, on the lockstep core."""
    monkeypatch.setattr(kernel_module, "pick_core", lambda flat: "lockstep")


def _lockstep(network: FlowNetwork) -> Tuple[FlatResidual, int]:
    """A cold solve of ``network`` on the lockstep core, driven directly."""
    flat = FlatResidual.from_network(network)
    return flat, flat.lockstep_max_flow()


def _warm_stream(seed: int) -> Tuple[IncrementalMaxFlow, MaxFlowResult]:
    """A kernel stream repaired after an edge insert, through a warm export.

    The insert appends an arc pair to a residual that already carries the
    cold solve's flow, so the repair lowers it with ``from_residual``.  It
    feeds a cell of the last column, whose edge to the sink (capacity
    ``rows``) never saturates, so the insert raises the flow, and the grid
    has over 2,000 edges, so the warm augmentation runs on the kernel.
    """
    rng = random.Random(seed)
    network = grid_graph(rng.randint(24, 26), rng.randint(30, 34), seed=seed)
    stream = IncrementalMaxFlow(MutableFlowNetwork(network), algorithm="kernel")
    last = [edge.tail for edge in network.edges() if edge.head == "t"]
    result = stream.push([EdgeInsert("s", rng.choice(last), rng.uniform(2.0, 6.0))])
    assert stream.warm_solves == 1
    return stream, result


class TestCompiledRelabels:
    """The compiled reverse BFS is the frontier loop, call for call.

    Every exact relabel of a lockstep solve is checked against the
    reference on the same residual (:func:`checked_bfs`), and whole
    lockstep solves with the reference patched in give the same flows and
    all six counters.  The solves drive the lockstep core directly: the
    kernel's own pick runs most of these instances on the compiled core,
    which relabels nothing.
    """

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_relabel_matches(self, checked_bfs, family, trial):
        network = FAMILIES[family](derive_seed("kernel-fuzz", family, trial), heavy=False)
        _lockstep(network)
        assert checked_bfs

    @pytest.mark.slow
    @pytest.mark.parametrize("trial", range(2))
    @pytest.mark.parametrize("family", HEAVY_FAMILIES)
    def test_every_relabel_matches_heavy(self, checked_bfs, family, trial):
        seed = derive_seed("kernel-fuzz-heavy", family, trial)
        _lockstep(FAMILIES[family](seed, heavy=True))
        assert checked_bfs

    @pytest.mark.parametrize("trial", range(3))
    def test_every_relabel_of_a_warm_export_matches(self, checked_bfs, lockstep_only, trial):
        stream, _ = _warm_stream(derive_seed("kernel-bfs-warm", trial))
        arcs = 2 * stream.network.num_edges  # the inserted edge's pair included
        warm = [flat for flat, _ in checked_bfs if flat.arc_tail.size == arcs]
        assert warm, "the repair after the insert ran no exact relabel"
        assert all(flat.residual[1::2].any() for flat in warm)  # carries flow

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_whole_solves_match(self, monkeypatch, family, trial):
        network = FAMILIES[family](derive_seed("kernel-fuzz", family, trial), heavy=False)
        compiled, sweeps = _lockstep(network)
        monkeypatch.setattr(FlatResidual, "_reverse_bfs", _frontier_bfs)
        reference, reference_sweeps = _lockstep(network)
        assert compiled.edge_flows() == reference.edge_flows()
        assert compiled.counter == reference.counter
        assert sweeps == reference_sweeps

    def test_whole_warm_solves_match(self, monkeypatch, lockstep_only):
        def answer():
            _, warm = _warm_stream(derive_seed("kernel-bfs-warm", 0))
            return warm.edge_flows, warm.operations, warm.iterations

        compiled = answer()
        monkeypatch.setattr(FlatResidual, "_reverse_bfs", _frontier_bfs)
        assert answer() == compiled


# ----------------------------------------------------------------------
# Dtype-promotion / INFINITY guards (the flat-array-only hazards)
# ----------------------------------------------------------------------


class TestFlatArrayDtypes:
    def test_int_capacities_promote_without_truncation(self):
        # All-int capacities with a fractional max flow: an int-dtype
        # residual array would round 2.5 down to 2.
        network = FlowNetwork()
        network.add_edge("s", "a", 3)
        network.add_edge("a", "t", 2.5)
        network.add_edge("s", "t", 4)
        flat = FlatResidual.from_network(network)
        assert flat.residual.dtype == np.float64
        result = KernelDinic().solve(network, validate=True)
        assert result.flow_value == pytest.approx(6.5, abs=1e-12)

    def test_mixed_int_float_fuzz_agrees_with_reference(self):
        rng = random.Random(derive_seed("kernel-dtype-fuzz"))
        network = rmat_graph(25, 90, seed=derive_seed("kernel-dtype-net"))
        for edge in network.edges():
            if rng.random() < 0.5:  # make half the capacities Python ints
                network.set_capacity(edge.index, int(edge.capacity) + 1)
        _assert_kernel_conforms(network)

    def test_infinity_capacity_survives_round_trip(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 3.0)
        network.add_edge("a", "b", INFINITY)
        network.add_edge("b", "t", 1.75)
        flat = FlatResidual.from_network(network)
        assert np.isinf(flat.residual).any()
        result = KernelDinic().solve(network, validate=True)
        assert result.flow_value == pytest.approx(1.75, abs=1e-12)
        # The uncapacitated arc must still be uncapacitated afterwards.
        assert np.isinf(flat.residual).any() or np.isinf(
            FlatResidual.from_network(network).residual
        ).any()


# ----------------------------------------------------------------------
# Engine names: one name, one implementation
# ----------------------------------------------------------------------


class TestKernelSelection:
    def test_backend_and_registry_expose_kernel(self):
        from repro.flows.registry import ALGORITHMS, solve_max_flow
        from repro.service import available_backends

        assert "kernel" in ALGORITHMS
        assert "kernel" in available_backends()
        network = FlowNetwork()
        network.add_edge("s", "t", 2.25)
        result = solve_max_flow(network, algorithm="kernel", validate=True)
        assert result.algorithm == "kernel"
        assert result.flow_value == 2.25

    @pytest.mark.parametrize("name", ["dinic", "kernel"])
    def test_classical_backend_runs_the_engine_it_names(self, name):
        from repro.service import ClassicalBackend, SolveRequest

        network = grid_graph(4, 5, seed=derive_seed("kernel-names"))
        result = ClassicalBackend(name).solve(SolveRequest(network=network))
        assert result.ok
        assert result.detail.algorithm == name

    def test_cold_exact_defaults_run_the_kernel(self, monkeypatch):
        """Cold exact solves that name no engine run the kernel.

        The server's exact route is pinned by ``tests/test_server.py``.
        """
        from repro.flows.mincut import min_cut
        from repro.flows.registry import DEFAULT_EXACT_ALGORITHM
        from repro.problems import BipartiteMatching
        from repro.resilience.faults import inject_faults
        from repro.service import BatchSolveService, ProblemSolveService

        assert DEFAULT_EXACT_ALGORITHM == "kernel"
        calls = []
        original = KernelDinic.solve

        def counting(self, network, validate=False):
            calls.append(network)
            return original(self, network, validate=validate)

        monkeypatch.setattr(KernelDinic, "solve", counting)
        network = grid_graph(4, 5, seed=derive_seed("kernel-defaults"))

        min_cut(network)
        assert calls == [network]
        problem = BipartiteMatching(["a"], ["x"], [("a", "x")])
        assert ProblemSolveService().solve(problem).result.backend == "kernel"
        with inject_faults("kind=error,site=shard-solve,times=0"):
            sharded = BatchSolveService(executor="serial", failover=True).solve(
                network, backend="sharded:dinic", shards=2
            )
        assert sharded.degraded
        assert sharded.detail.algorithm == "kernel"
