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

Fused solves (:class:`repro.flows.kernel.FusedSolves`) are held to the
same contract per member: seeded groups drawn from the seven families,
each member scaled by its own factor, answer what each member answers
alone.

The kernel's exact relabels run one compiled reverse BFS; the
frontier-at-a-time loop it replaced stays here as the reference, and at
every relabel of cold, fused and warm solves the two must return the same
labels and advance the operation counters alike.

The dtype-promotion guard pins the latent hazard the object-based path
never had: flat arrays built from int or mixed int/float capacities must
promote to float64, not truncate; ``INFINITY`` capacities must survive the
round trip as ``inf``.  Heavy sizes run behind ``--runslow``.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import numpy as np
import pytest

from conformance import scaled_network
from seeding import derive_seed

from repro.errors import AlgorithmError
from repro.flows.base import INFINITY, MaxFlowResult
from repro.flows.dinic import Dinic
from repro.flows.incremental import IncrementalMaxFlow
from repro.flows.kernel import (
    FlatResidual,
    FusedSolves,
    KernelDinic,
    _expand,
    fusion_scope,
)
from repro.flows.mincut import min_cut_from_flow
from repro.flows.push_relabel import PushRelabel
from repro.graph import FlowNetwork, bipartite_graph, grid_graph, rmat_graph
from repro.graph.updates import EdgeInsert, MutableFlowNetwork

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
# Fused solves: one union per group, one exact answer per member
# ----------------------------------------------------------------------


def _uncapacitated(rng: random.Random) -> FlowNetwork:
    """A capacitated s-t path beside an uncapacitated one.

    The kernel answers the unbounded path with its finite surrogate, which
    depends on every capacity in the residual it solves, so this member is
    only ever right when it is solved alone.
    """
    network = FlowNetwork()
    network.add_edge("s", "a", rng.uniform(1.0, 5.0))
    network.add_edge("a", "t", rng.uniform(1.0, 5.0))
    network.add_edge("s", "b", INFINITY)
    network.add_edge("b", "t", INFINITY)
    return network


class TestFusedSolves:
    """Every member of a fused group gets the answer it gets alone.

    Each group of 2-4 family members spans capacity scales 2^-13 to 2^13
    (about 10^-4 to 10^4), so a union that shared one saturation threshold
    across members would lose the small ones; one member carries an
    uncapacitated edge and must be solved alone.  Factors are powers of
    two so a member's flow divided by its factor is exactly the flow on
    its unscaled base, where the cut check's absolute slack threshold
    means what it means in the fuzz gate above.
    """

    @pytest.mark.parametrize("trial", range(12))
    def test_fused_members_equal_solo_solves(self, trial):
        rng = random.Random(derive_seed("kernel-fused", trial))
        size = rng.randint(2, 4)
        exponents = [-13, 13] + [rng.randint(-13, 13) for _ in range(size - 2)]
        members = []  # (base, factor)
        for exponent in exponents:
            family = rng.choice(sorted(FAMILIES))
            members.append((FAMILIES[family](rng.getrandbits(32), False), 2.0**exponent))
        rng.shuffle(members)
        unbounded = _uncapacitated(rng)
        members.insert(rng.randrange(size + 1), (unbounded, 1.0))
        networks = [scaled_network(base, factor) for base, factor in members]

        group = FusedSolves(networks)
        for member, ((base, factor), network) in enumerate(zip(members, networks)):
            with fusion_scope(group, member):
                fused = KernelDinic().solve(network, validate=True)
            solo = KernelDinic().solve(network)
            if base is unbounded:  # no finite cut: the surrogate, solved alone
                assert fused.edge_flows == solo.edge_flows
                continue
            # A solo solve treats arcs under 1e-12 * max(1, top capacity) as
            # saturated; the union, scaled per member, resolves them.
            top = max([e.capacity for e in network.edges() if e.capacity < INFINITY] + [0.0])
            assert fused.flow_value == pytest.approx(
                solo.flow_value, rel=1e-9, abs=1e-12 * max(1.0, top)
            ), f"member {member} of {len(networks)} (x{factor:g})"
            unscaled = MaxFlowResult(
                flow_value=fused.flow_value / factor,
                edge_flows={k: f / factor for k, f in fused.edge_flows.items()},
                algorithm="fused",
            )
            cut = min_cut_from_flow(base, unscaled)
            assert base.sink not in cut.source_side
            assert cut.cut_value == pytest.approx(
                unscaled.flow_value, rel=1e-9, abs=1e-12
            ), f"member {member}: fused flow is not maximum"
        # One union ran; every other member but the uncapacitated one read it.
        assert group.fused == len(networks) - 2

    def test_union_failure_fails_only_the_member_that_ran_it(self, monkeypatch):
        networks = [scaled_network(grid_graph(3, 4, seed=5), f) for f in (1.0, 2.0, 4.0)]
        group = FusedSolves(networks)
        original, failing = FlatResidual.max_flow, [True]

        def fails_once(flat):
            if failing:
                failing.clear()
                raise AlgorithmError("union failed")
            return original(flat)

        monkeypatch.setattr(FlatResidual, "max_flow", fails_once)
        with fusion_scope(group, 0), pytest.raises(AlgorithmError):
            KernelDinic().solve(networks[0])
        answers = []
        for member in (1, 2):
            with fusion_scope(group, member):
                answers.append(KernelDinic().solve(networks[member]).flow_value)
        solo = KernelDinic().solve(networks[0]).flow_value
        assert answers == pytest.approx([2.0 * solo, 4.0 * solo], rel=1e-9)
        assert group.fused == 1  # member 2 read the union member 1 ran

    def test_solves_outside_the_member_network_run_alone(self):
        first, second = grid_graph(3, 4, seed=6), grid_graph(3, 4, seed=7)
        group = FusedSolves([first, second])
        with fusion_scope(group, 0):
            # Another network object (a reduction, a shard) is not member 0.
            KernelDinic().solve(scaled_network(first, 3.0))
        assert group.fused == 0
        with fusion_scope(group, 1):
            KernelDinic().solve(second)
        assert group.fused == 0


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


def _fused_group(seed: int) -> List[FlowNetwork]:
    """Two to four family members, each scaled by its own power of two."""
    rng = random.Random(seed)
    networks = []
    for _ in range(rng.randint(2, 4)):
        base = FAMILIES[rng.choice(sorted(FAMILIES))](rng.getrandbits(32), False)
        networks.append(scaled_network(base, 2.0 ** rng.randint(-13, 13)))
    return networks


def _solve_group(networks: List[FlowNetwork]) -> List[MaxFlowResult]:
    group = FusedSolves(networks)
    results = []
    for member, network in enumerate(networks):
        with fusion_scope(group, member):
            results.append(KernelDinic().solve(network))
    assert group.fused == len(networks) - 1  # one union answered them all
    return results


def _warm_stream(seed: int) -> Tuple[IncrementalMaxFlow, MaxFlowResult]:
    """A kernel stream repaired after an edge insert, through a warm export.

    The insert appends an arc pair to a residual that already carries the
    cold solve's flow, so the repair lowers it with ``from_residual``.
    """
    rng = random.Random(seed)
    network = grid_graph(rng.randint(4, 7), rng.randint(5, 9), seed=seed)
    stream = IncrementalMaxFlow(MutableFlowNetwork(network), algorithm="kernel")
    inner = [v for v in network.vertices() if v not in ("s", "t")]
    result = stream.push([EdgeInsert("s", rng.choice(inner), rng.uniform(2.0, 6.0))])
    assert stream.warm_solves == 1
    return stream, result


class TestCompiledRelabels:
    """The compiled reverse BFS is the frontier loop, call for call.

    Every exact relabel of a solve is checked against the reference on the
    same residual (:func:`checked_bfs`), and whole solves with the
    reference patched in give the same flows and all six counters.
    """

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_relabel_matches(self, checked_bfs, family, trial):
        network = FAMILIES[family](derive_seed("kernel-fuzz", family, trial), heavy=False)
        KernelDinic().solve(network)
        assert checked_bfs

    @pytest.mark.slow
    @pytest.mark.parametrize("trial", range(2))
    @pytest.mark.parametrize("family", HEAVY_FAMILIES)
    def test_every_relabel_matches_heavy(self, checked_bfs, family, trial):
        seed = derive_seed("kernel-fuzz-heavy", family, trial)
        KernelDinic().solve(FAMILIES[family](seed, heavy=True))
        assert checked_bfs

    @pytest.mark.parametrize("trial", range(3))
    def test_every_relabel_of_a_fused_union_matches(self, checked_bfs, trial):
        networks = _fused_group(derive_seed("kernel-bfs-fused", trial))
        _solve_group(networks)
        vertices = sum(network.num_vertices for network in networks) + 2
        assert {flat.num_vertices for flat, _ in checked_bfs} == {vertices}

    @pytest.mark.parametrize("trial", range(3))
    def test_every_relabel_of_a_warm_export_matches(self, checked_bfs, trial):
        stream, _ = _warm_stream(derive_seed("kernel-bfs-warm", trial))
        arcs = 2 * stream.network.num_edges  # the inserted edge's pair included
        warm = [flat for flat, _ in checked_bfs if flat.arc_tail.size == arcs]
        assert warm, "the repair after the insert ran no exact relabel"
        assert all(flat.residual[1::2].any() for flat in warm)  # carries flow

    @pytest.mark.parametrize("trial", range(3))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_whole_solves_match(self, monkeypatch, family, trial):
        network = FAMILIES[family](derive_seed("kernel-fuzz", family, trial), heavy=False)
        compiled = KernelDinic().solve(network)
        monkeypatch.setattr(FlatResidual, "_reverse_bfs", _frontier_bfs)
        reference = KernelDinic().solve(network)
        assert compiled.edge_flows == reference.edge_flows
        assert compiled.operations == reference.operations
        assert compiled.iterations == reference.iterations

    def test_whole_fused_and_warm_solves_match(self, monkeypatch):
        def answers():
            fused = _solve_group(_fused_group(derive_seed("kernel-bfs-fused", 0)))
            _, warm = _warm_stream(derive_seed("kernel-bfs-warm", 0))
            return [(r.edge_flows, r.operations, r.iterations) for r in fused + [warm]]

        compiled = answers()
        monkeypatch.setattr(FlatResidual, "_reverse_bfs", _frontier_bfs)
        assert answers() == compiled


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
