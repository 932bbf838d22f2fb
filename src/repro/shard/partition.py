"""Multi-way overlapping graph partitioning for N-way dual decomposition.

Generalises the two-way scheme of Section 6.4 (after Strandmark & Kahl
[39]) to an arbitrary number of overlapping shards.  Vertices are ordered
by a lightweight METIS-style heuristic — BFS distance from the source, or
a geometric source/sink potential — and chunked into ``num_shards``
contiguous *cores*; every edge crossing between two cores promotes both
endpoints into the *overlap band* of both shards.  Each shard's subproblem
is the induced subgraph on its side (core + overlap + terminals), and an
edge appearing in ``m`` subproblems
carries ``capacity / m`` in each of them, so the sum of the subproblem
objectives over any *consistent* labelling equals the original objective —
the property the dual coordinator's lower bound rests on.  For two shards
this reduces to the paper's half-capacity shared-edge construction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..errors import DecompositionError
from ..graph.network import FlowNetwork

__all__ = ["MultiwayPartition", "partition_multiway", "validate_partition_args"]

Vertex = Hashable

#: Vertex-ordering heuristics understood by :func:`partition_multiway`.
PARTITION_METHODS = ("bfs", "geometric")


@dataclass
class MultiwayPartition:
    """``num_shards`` overlapping vertex sets covering the whole graph.

    Attributes
    ----------
    network:
        The original instance.
    cores:
        Disjoint vertex sets, one per shard, covering every vertex.  The
        source lives in core 0 and the sink in the last core.
    sides:
        Per-shard solve sets: the core plus the overlap vertices adjacent to
        it plus both terminals (every subproblem stays an s-t instance).
    overlap:
        Vertices belonging to more than one side (terminals excluded); their
        duplicated copies must agree at the optimum and carry the dual
        multipliers.
    membership:
        ``vertex -> sorted tuple of shard ids`` whose side contains it, for
        every non-terminal vertex (length 1 for exclusive vertices).
    subproblems:
        One induced sub-network per shard.  An edge contained in ``m``
        sides carries ``capacity / m`` in each, preserving the objective
        sum (``edge_share`` records ``m`` per original edge index).
    edge_share:
        ``original edge index -> number of subproblems carrying it``.
    """

    network: FlowNetwork
    cores: List[Set[Vertex]]
    sides: List[Set[Vertex]]
    overlap: Set[Vertex]
    membership: Dict[Vertex, Tuple[int, ...]]
    subproblems: List[FlowNetwork]
    edge_share: Dict[int, int] = field(default_factory=dict)

    @property
    def num_shards(self) -> int:
        """Number of shards of the partition."""
        return len(self.cores)

    def describe(self) -> Dict[str, object]:
        """Size summary used by reports and tests."""
        return {
            "vertices": self.network.num_vertices,
            "shards": self.num_shards,
            "overlap": len(self.overlap),
            "core_sizes": [len(core) for core in self.cores],
            "side_sizes": [len(side) for side in self.sides],
            "subproblem_edges": [sub.num_edges for sub in self.subproblems],
        }


def _bfs_order(network: FlowNetwork) -> List[Vertex]:
    """Vertices by BFS discovery from the source, unreachable ones appended."""
    order: List[Vertex] = []
    seen = {network.source}
    queue = deque([network.source])
    while queue:
        vertex = queue.popleft()
        order.append(vertex)
        for edge in network.out_edges(vertex):
            if edge.head not in seen:
                seen.add(edge.head)
                queue.append(edge.head)
    for vertex in network.vertices():
        if vertex not in seen:
            order.append(vertex)
    return order


def _geometric_order(network: FlowNetwork) -> List[Vertex]:
    """Vertices by the source/sink potential ``d(s, v) - d(v, t)``.

    Uses undirected-BFS distances from the source and (on the reversed
    graph) from the sink; vertices reachable from neither keep their BFS
    rank.  The potential stripes the graph geometrically between the
    terminals — the analogue of a coordinate-bisection seed for instances
    (grids, road networks) with spatial structure.
    """
    def distances(net: FlowNetwork, root: Vertex) -> Dict[Vertex, int]:
        dist = {root: 0}
        queue = deque([root])
        while queue:
            vertex = queue.popleft()
            for edge in net.out_edges(vertex):
                if edge.head not in dist:
                    dist[edge.head] = dist[vertex] + 1
                    queue.append(edge.head)
        return dist

    from_source = distances(network, network.source)
    to_sink = distances(network.reversed(), network.sink)
    bfs_rank = {v: i for i, v in enumerate(_bfs_order(network))}
    far = network.num_vertices + 1

    def potential(vertex: Vertex) -> Tuple[int, int]:
        ds = from_source.get(vertex, far)
        dt = to_sink.get(vertex, far)
        return (ds - dt, bfs_rank[vertex])

    return sorted(network.vertices(), key=potential)


def _chunk_bounds(total: int, fractions: Sequence[float]) -> List[int]:
    """Cumulative chunk end-positions for ``total`` items, every chunk >= 1."""
    bounds: List[int] = []
    cumulative = 0.0
    for fraction in fractions[:-1]:
        cumulative += fraction
        bounds.append(int(round(cumulative * total)))
    bounds.append(total)
    # Enforce monotonically increasing, non-empty chunks.
    for i in range(len(bounds)):
        lower = (bounds[i - 1] if i else 0) + 1
        upper = total - (len(bounds) - 1 - i)
        bounds[i] = min(max(bounds[i], lower), upper)
    return bounds


def validate_partition_args(
    network: FlowNetwork,
    num_shards: int,
    method: str = "bfs",
    fractions: Optional[Sequence[float]] = None,
) -> List[float]:
    """Validate partition arguments and return the normalised fractions.

    Shared by :func:`partition_multiway` and the service layer, which
    validates *eagerly* so that configuration mistakes fail fast instead of
    being mistaken for runtime solve failures (and e.g. triggering an
    unsharded degradation fallback).

    Raises
    ------
    DecompositionError
        For fewer than 2 shards, more shards than vertices, malformed
        fractions or an unknown ``method``.
    """
    if num_shards < 2:
        raise DecompositionError("partition_multiway needs at least 2 shards")
    # The terminals are pinned to the first/last core, so the chunking runs
    # over the interior vertices only — each of the N chunks needs one.
    if num_shards > max(2, network.num_vertices - 2):
        raise DecompositionError(
            f"cannot cut {network.num_vertices - 2} interior vertices into "
            f"{num_shards} shards"
        )
    if method not in PARTITION_METHODS:
        known = ", ".join(PARTITION_METHODS)
        raise DecompositionError(f"unknown partition method {method!r}; known: {known}")
    if fractions is None:
        return [1.0 / num_shards] * num_shards
    fractions = [float(f) for f in fractions]
    if len(fractions) != num_shards:
        raise DecompositionError(
            f"got {len(fractions)} fractions for {num_shards} shards"
        )
    if any(f <= 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-6:
        raise DecompositionError("fractions must be positive and sum to 1")
    return fractions


def partition_multiway(
    network: FlowNetwork,
    num_shards: int,
    method: str = "bfs",
    fractions: Optional[Sequence[float]] = None,
) -> MultiwayPartition:
    """Split ``network`` into ``num_shards`` overlapping shards.

    Parameters
    ----------
    network:
        The instance to partition.
    num_shards:
        Number of shards (>= 2; use the plain solvers for one shard).
    method:
        Vertex-ordering heuristic: ``"bfs"`` chunks the BFS order from the
        source (the generalisation of the two-way split), ``"geometric"``
        chunks the source/sink potential ordering.
    fractions:
        Optional per-shard vertex fractions (must sum to ~1); equal chunks
        by default.  ``[0.3, 0.7]`` reproduces the two-way ``balance=0.3``
        split.

    Returns
    -------
    MultiwayPartition
        Cores, sides, overlap band, membership map and the per-shard
        subproblems with share-divided capacities.

    Raises
    ------
    DecompositionError
        For fewer than 2 shards, more shards than vertices, malformed
        fractions or an unknown ``method``.
    """
    fractions = validate_partition_args(network, num_shards, method, fractions)

    order = _bfs_order(network) if method == "bfs" else _geometric_order(network)
    # The terminals get pinned to the first/last core below; keep them out of
    # the chunking so the interior chunks stay balanced.
    interior = [v for v in order if v not in (network.source, network.sink)]
    bounds = _chunk_bounds(len(interior), fractions) if interior else [0] * num_shards

    cores: List[Set[Vertex]] = []
    start = 0
    for end in bounds:
        cores.append(set(interior[start:end]))
        start = end
    cores[0].add(network.source)
    cores[-1].add(network.sink)

    core_of: Dict[Vertex, int] = {}
    for shard, core in enumerate(cores):
        for vertex in core:
            core_of[vertex] = shard

    # Overlap band: every edge crossing between two cores promotes both of
    # its endpoints into both shards' sides.
    membership_sets: Dict[Vertex, Set[int]] = {
        v: {core_of[v]} for v in network.vertices()
    }
    for edge in network.edges():
        tail_core = core_of[edge.tail]
        head_core = core_of[edge.head]
        if tail_core != head_core:
            membership_sets[edge.tail].update((tail_core, head_core))
            membership_sets[edge.head].update((tail_core, head_core))

    terminals = (network.source, network.sink)
    overlap = {
        v
        for v, members in membership_sets.items()
        if len(members) > 1 and v not in terminals
    }
    membership = {
        v: tuple(sorted(members))
        for v, members in membership_sets.items()
        if v not in terminals
    }

    sides: List[Set[Vertex]] = [set(terminals) for _ in range(num_shards)]
    for vertex, members in membership_sets.items():
        for shard in members:
            sides[shard].add(vertex)

    # An edge carried by m sides gets capacity/m in each of them, so summing
    # the subproblem objectives over a consistent labelling recounts every
    # cut edge exactly once.  Terminals belong to every side, hence m is
    # never zero.
    edge_share: Dict[int, int] = {}
    for edge in network.edges():
        edge_share[edge.index] = sum(
            1 for side in sides if edge.tail in side and edge.head in side
        )

    subproblems: List[FlowNetwork] = []
    for side in sides:
        sub = FlowNetwork(network.source, network.sink)
        for vertex in network.vertices():
            if vertex in side:
                sub.add_vertex(vertex)
        for edge in network.edges():
            if edge.tail in side and edge.head in side:
                capacity = edge.capacity
                if not edge.is_uncapacitated and edge_share[edge.index] > 1:
                    capacity = capacity / edge_share[edge.index]
                sub.add_edge(edge.tail, edge.head, capacity)
        subproblems.append(sub)

    return MultiwayPartition(
        network=network,
        cores=cores,
        sides=sides,
        overlap=overlap,
        membership=membership,
        subproblems=subproblems,
        edge_share=edge_share,
    )
