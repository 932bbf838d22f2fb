"""Tests for the FlowNetwork data structure."""

from __future__ import annotations

import hashlib
import math
import random
import sys
import threading

import numpy as np
import pytest

from seeding import derive_seed

from repro.errors import EdgeNotFoundError, InvalidGraphError, VertexNotFoundError
from repro.flows.kernel import KernelDinic
from repro.graph import FlowNetwork, grid_graph, paper_example_graph, rmat_graph


class TestConstruction:
    def test_source_and_sink_are_created(self):
        network = FlowNetwork(source="s", sink="t")
        assert network.has_vertex("s")
        assert network.has_vertex("t")
        assert network.num_vertices == 2
        assert network.num_edges == 0

    def test_source_equals_sink_rejected(self):
        with pytest.raises(InvalidGraphError):
            FlowNetwork(source="x", sink="x")

    def test_add_edge_creates_vertices(self):
        network = FlowNetwork()
        edge = network.add_edge("a", "b", 5.0)
        assert network.has_vertex("a") and network.has_vertex("b")
        assert edge.index == 0
        assert edge.capacity == 5.0

    def test_negative_capacity_rejected(self):
        network = FlowNetwork()
        with pytest.raises(InvalidGraphError):
            network.add_edge("a", "b", -1.0)

    def test_self_loop_rejected(self):
        network = FlowNetwork()
        with pytest.raises(InvalidGraphError):
            network.add_edge("a", "a", 1.0)

    def test_parallel_edges_allowed(self):
        network = FlowNetwork()
        network.add_edge("a", "b", 1.0)
        network.add_edge("a", "b", 2.0)
        assert network.num_edges == 2
        assert len(network.find_edges("a", "b")) == 2

    def test_edge_indices_are_positional(self):
        network = paper_example_graph()
        for position, edge in enumerate(network.edges()):
            assert edge.index == position
            assert network.edge(position) is not None

    def test_unknown_edge_index(self):
        with pytest.raises(EdgeNotFoundError):
            paper_example_graph().edge(99)

    def test_unknown_vertex_query(self):
        with pytest.raises(VertexNotFoundError):
            paper_example_graph().out_edges("nope")


class TestQueries:
    def test_paper_example_shape(self):
        g = paper_example_graph()
        assert g.num_vertices == 5
        assert g.num_edges == 5
        assert g.out_degree("s") == 1
        assert g.in_degree("t") == 2
        assert sorted(g.internal_vertices()) == ["n1", "n2", "n3"]

    def test_neighbors_are_unique(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 1.0)
        network.add_edge("s", "a", 2.0)
        network.add_edge("s", "t", 3.0)
        assert network.neighbors("s") == ["a", "t"]

    def test_max_and_total_capacity(self):
        g = paper_example_graph()
        assert g.max_capacity() == 3.0
        assert g.total_capacity() == pytest.approx(9.0)

    def test_infinite_capacity_excluded_from_max(self):
        network = FlowNetwork()
        network.add_edge("s", "a", 2.0)
        network.add_edge("a", "t", float("inf"))
        assert network.max_capacity() == 2.0

    def test_adjacency_matrix_merges_parallel_edges(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1.0)
        network.add_edge("s", "t", 2.5)
        order, matrix = network.adjacency_matrix()
        i, j = order.index("s"), order.index("t")
        assert matrix[i][j] == pytest.approx(3.5)

    def test_copy_and_reversed(self):
        g = paper_example_graph()
        clone = g.copy()
        assert clone.num_edges == g.num_edges and clone is not g
        rev = g.reversed()
        assert rev.source == g.sink and rev.sink == g.source
        assert rev.has_edge("n1", "s")

    def test_subgraph_requires_terminals(self):
        g = paper_example_graph()
        with pytest.raises(InvalidGraphError):
            g.subgraph(["n1", "n2"])
        sub = g.subgraph(["s", "n1", "n2", "t"])
        assert sub.num_vertices == 4
        assert not sub.has_vertex("n3")


class TestFlowChecks:
    def test_feasible_flow_accepted(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
        assert g.is_feasible_flow(flow)
        assert g.flow_value(flow) == pytest.approx(2.0)

    def test_capacity_violation_detected(self):
        g = paper_example_graph()
        flow = {0: 4.0, 1: 2.0, 2: 2.0, 3: 2.0, 4: 2.0}
        problems = g.check_flow(flow)
        assert any("exceeds" in p for p in problems)

    def test_conservation_violation_detected(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 0.5, 2: 1.0, 3: 1.0, 4: 1.0}
        problems = g.check_flow(flow)
        assert any("conservation" in p for p in problems)

    def test_negative_flow_detected(self):
        g = paper_example_graph()
        problems = g.check_flow({0: -0.5})
        assert any("negative" in p for p in problems)

    def test_excess(self):
        g = paper_example_graph()
        flow = {0: 2.0, 1: 1.0, 2: 1.0}
        assert g.excess(flow, "n1") == pytest.approx(0.0)
        assert g.excess(flow, "n2") == pytest.approx(1.0)

    def test_cut_capacity(self):
        g = paper_example_graph()
        assert g.cut_capacity({"s"}) == pytest.approx(3.0)
        assert g.cut_capacity({"s", "n1"}) == pytest.approx(3.0)
        assert g.cut_capacity({"s", "n1", "n2", "n3"}) == pytest.approx(3.0)

    def test_cut_capacity_requires_valid_partition(self):
        g = paper_example_graph()
        with pytest.raises(InvalidGraphError):
            g.cut_capacity({"n1"})
        with pytest.raises(InvalidGraphError):
            g.cut_capacity({"s", "t"})


# ----------------------------------------------------------------------
# The cached array view, its digest and the in-place freeze
# ----------------------------------------------------------------------


def reference_signature(network: FlowNetwork) -> str:
    """The sha256-over-``repr`` signature the view's digest replaced."""
    digest = hashlib.sha256()
    digest.update(repr((network.source, network.sink)).encode())
    for vertex in network.vertices():
        digest.update(repr(vertex).encode())
        digest.update(b"\x00")
    for edge in network.edges():
        digest.update(repr((edge.tail, edge.head, edge.capacity)).encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def build(source, sink, vertices, triples) -> FlowNetwork:
    network = FlowNetwork(source, sink)
    for vertex in vertices:
        network.add_vertex(vertex)
    for tail, head, capacity in triples:
        network.add_edge(tail, head, capacity)
    return network


def one_edit_variants(base: FlowNetwork, rng: random.Random) -> list:
    """``base`` rebuilt, copied, and changed by one edit each."""
    s, t = base.source, base.sink
    vertices = base.vertices()
    inner = vertices[2:]
    triples = [(e.tail, e.head, e.capacity) for e in base.edges()]
    k = rng.randrange(len(triples))
    tail, head, capacity = triples[k]

    def with_capacity(value):
        return triples[:k] + [(tail, head, value)] + triples[k + 1:]

    def relabelled(old, new):
        rename = {old: new}
        return build(
            s, t, [rename.get(v, v) for v in vertices],
            [(rename.get(a, a), rename.get(b, b), c) for a, b, c in triples],
        )

    label = rng.choice(inner)
    return [
        build(s, t, vertices, triples),
        base.snapshot(),
        # Integral capacities given as ints are stored as the same floats.
        build(s, t, vertices, [(a, b, int(c) if c == int(c) else c)
                               for a, b, c in triples]),
        build(s, t, vertices, with_capacity(capacity * 2.0 + 1.0)),
        build(s, t, vertices, with_capacity(0.0)),
        build(s, t, vertices, with_capacity(-0.0)),
        build(s, t, vertices, with_capacity(math.inf)),
        build(s, t, vertices, triples + [triples[k]]),
        build(s, t, vertices[:2] + inner[1:] + inner[:1], triples),
        relabelled(label, ("renamed", label)),
        relabelled(label, repr(label)),
        build(t, s, vertices, triples),
    ]


class TestFlatView:
    def test_view_matches_the_edge_list(self):
        network = rmat_graph(24, 80, seed=derive_seed("flat-view"))
        network.add_edge(network.source, network.sink, math.inf)
        view = network.flat()
        index = network.vertex_index_map()
        edges = network.edges()
        assert view.tail.dtype == np.int64 and view.head.dtype == np.int64
        assert view.capacity.dtype == np.float64
        assert view.tail.tolist() == [index[e.tail] for e in edges]
        assert view.head.tolist() == [index[e.head] for e in edges]
        assert view.capacity.tolist() == [e.capacity for e in edges]
        assert (view.source, view.sink) == (index[network.source], index[network.sink])
        for array in (view.tail, view.head, view.capacity):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_digest_equality_matches_the_repr_signature(self):
        rng = random.Random(derive_seed("digest-equivalence"))
        bases = [
            paper_example_graph(),
            grid_graph(3, 4, seed=rng.getrandbits(32), capacity_jitter=0.5),
        ] + [
            rmat_graph(16, 48, seed=rng.getrandbits(32)) for _ in range(4)
        ]
        for base in bases:
            networks = [base] + one_edit_variants(base, rng)
            digests = [n.flat().digest for n in networks]
            references = [reference_signature(n) for n in networks]
            for i in range(len(networks)):
                for j in range(len(networks)):
                    same = references[i] == references[j]
                    assert (digests[i] == digests[j]) == same, (i, j)
            # The rebuild, the copy and the int-capacity rebuild equal the
            # base; every edit differs from it.
            assert references.count(references[0]) == 4

    def test_every_mutator_drops_the_view(self):
        network = FlowNetwork()
        network.add_edge("s", "t", 1.0)
        for mutate in (
            lambda: network.add_vertex("v"),
            lambda: network.add_edge("s", "v", 2.0),
            lambda: network.set_capacity(0, 5.0),
        ):
            before = network.flat()
            mutate()
            after = network.flat()
            assert after is not before and after.digest != before.digest
            assert after.digest == network.snapshot().flat().digest
        network.add_vertex("v")  # already present: nothing changes
        assert network.flat() is after

    def test_concurrent_builds_agree(self):
        network = grid_graph(6, 8, seed=derive_seed("flat-threads"))
        expected = network.snapshot().flat()
        views, barrier = [], threading.Barrier(8)

        def build_view():
            barrier.wait(timeout=10)
            for _ in range(20):
                network._flat = None  # force a rebuild on every call
                views.append(network.flat())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build_view) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(views) == 160
        for view in views + [network.flat()]:
            assert view.digest == expected.digest
            assert np.array_equal(view.capacity, expected.capacity)


class TestFreeze:
    def test_frozen_mutators_raise_and_keep_the_view(self):
        network = paper_example_graph()
        digest = paper_example_graph().flat().digest
        assert network.freeze() is network
        view = network.flat()
        for mutate in (
            lambda: network.add_vertex("new"),
            lambda: network.add_edge("s", "t", 1.0),
            lambda: network.add_edges_from([("n1", "new", 1.0)]),
            lambda: network.set_capacity(0, 9.0),
        ):
            with pytest.raises(InvalidGraphError, match="frozen"):
                mutate()
            assert network.flat() is view and view.digest == digest
        assert network.num_edges == 5 and not network.has_vertex("new")
        assert network.edge(0).capacity == 3.0
        assert network.add_vertex("n1") == "n1"  # already present

    def test_freeze_is_idempotent_and_snapshots_are_mutable(self):
        network = paper_example_graph()
        view = network.freeze().flat()
        assert network.freeze() is network and network.flat() is view
        for copy in (network.snapshot(), network.copy()):
            copy.set_capacity(0, 9.0)
            copy.add_edge("n1", "new", 1.0)
            assert copy.flat().digest != view.digest
        assert network.flat() is view


# ----------------------------------------------------------------------
# check_flow against the per-edge loop it replaced
# ----------------------------------------------------------------------


def reference_check_flow(network, flow, capacity_tol=1e-9, conservation_tol=1e-9):
    """The per-edge Python loop ``check_flow`` replaced."""
    problems = []
    for edge in network.edges():
        value = flow.get(edge.index, 0.0)
        if value < -capacity_tol:
            problems.append(
                f"edge {edge.index} ({edge.tail}->{edge.head}): negative flow {value}"
            )
        if not edge.is_uncapacitated and value > edge.capacity + capacity_tol:
            problems.append(
                f"edge {edge.index} ({edge.tail}->{edge.head}): flow {value} exceeds "
                f"capacity {edge.capacity}"
            )
    for vertex in network.internal_vertices():
        excess = network.excess(flow, vertex)
        if abs(excess) > conservation_tol:
            problems.append(f"vertex {vertex!r}: conservation violated by {excess}")
    return problems


def perturbed_flows(network: FlowNetwork, rng: random.Random) -> list:
    """A max flow plus seeded infeasible variants of it."""
    feasible = KernelDinic().solve(network).edge_flows
    m = network.num_edges
    flows = [feasible, {}]
    for _ in range(6):
        flow = dict(feasible)
        for index in rng.sample(range(m), 3):
            flow[index] *= rng.choice((1.5, 2.0, -1.0))  # over, or negative
        for index in rng.sample(range(m), 2):
            flow[index] = -rng.uniform(0.0, 1e-8)  # negative within a tolerance
        for index in rng.sample(range(m), 2):
            flow.pop(index, None)  # a missing key counts as 0.0
        flow.update({-1: 5.0, m: 7.0, m + 9: -3.0, "x": 1.0})  # ignored keys
        flows.append(flow)
    return flows


class TestCheckFlowDifferential:
    def test_matches_the_loop_message_for_message(self):
        rng = random.Random(derive_seed("check-flow-differential"))
        networks = []
        for _ in range(4):
            network = rmat_graph(20, 70, seed=rng.getrandbits(32))
            for vertex in rng.sample(network.internal_vertices(), 2):
                network.add_edge(network.source, vertex, math.inf)
            networks.append(network)
        networks.append(grid_graph(4, 5, seed=rng.getrandbits(32)))
        violations = feasible = 0
        for network in networks:
            for flow in perturbed_flows(network, rng):
                for tols in ((), (1e-6, 1e-6), (0.0, 0.0), (1e-9, 10.0)):
                    expected = reference_check_flow(network, flow, *tols)
                    assert network.check_flow(flow, *tols) == expected
                    violations += bool(expected)
                    feasible += not expected
        assert violations and feasible

    def test_integer_flows_keep_their_formatting(self):
        network = paper_example_graph()
        flow = {0: 4, 1: 2, 2: -1, 3: 2, 5: 3}
        expected = reference_check_flow(network, flow)
        assert network.check_flow(flow) == expected
        assert "vertex 'n1': conservation violated by 3" in expected
