"""Directed flow-network data structure.

A :class:`FlowNetwork` is a directed graph ``G = (V, E)`` with a nonnegative
capacity on every edge and two distinguished vertices, the source ``s`` and
the sink ``t`` (Section 2 of the paper).  Vertices are arbitrary hashable
labels; edges are identified by an integer index so that parallel edges are
supported (the analog substrate allocates one circuit node per edge, so edge
identity matters).

Every per-request consumer (cache keys, kernel lowering, flow
certification) reads the network through one cached array view,
:meth:`FlowNetwork.flat`, and :meth:`FlowNetwork.freeze` makes a network
immutable in place so that view, and its digest, can never go stale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..errors import (
    EdgeNotFoundError,
    InvalidGraphError,
    VertexNotFoundError,
)

__all__ = ["Edge", "FlatView", "FlowNetwork"]

Vertex = Hashable

_FROZEN = "network is frozen; edit a snapshot() instead"


@dataclass(frozen=True)
class Edge:
    """A single directed edge of a flow network.

    Attributes
    ----------
    index:
        Stable integer identifier of the edge within its network.  The analog
        compiler names the corresponding circuit node ``x{index}``.
    tail, head:
        Edge goes from ``tail`` to ``head``.
    capacity:
        Nonnegative edge capacity ``c_e``.  ``float('inf')`` is allowed and
        denotes an uncapacitated edge (used by the Section 6.5 example).
    """

    index: int
    tail: Vertex
    head: Vertex
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise InvalidGraphError(
                f"edge {self.tail}->{self.head} has negative capacity {self.capacity}"
            )

    @property
    def is_uncapacitated(self) -> bool:
        """True when the edge has infinite capacity."""
        return self.capacity == float("inf")

    def reversed(self) -> "Edge":
        """Return an :class:`Edge` with tail and head swapped (same index)."""
        return Edge(self.index, self.head, self.tail, self.capacity)


class FlatView(NamedTuple):
    """Array view of a :class:`FlowNetwork` (see :meth:`FlowNetwork.flat`).

    Attributes
    ----------
    tail, head:
        int64 vertex positions (vertex insertion order), one per edge in
        index order.  Read-only.
    capacity:
        float64 edge capacities in index order.  Read-only.
    source, sink:
        Vertex positions of the source and the sink.
    digest:
        blake2b hex digest of the source/sink labels, the vertex labels in
        order and the three arrays.  Two networks share it exactly when
        they have the same source/sink labels, the same vertices in the
        same insertion order and the same edges (tail, head, capacity) in
        the same insertion order.
    """

    tail: np.ndarray
    head: np.ndarray
    capacity: np.ndarray
    source: int
    sink: int
    digest: str


class FlowNetwork:
    """Directed graph with edge capacities and a source/sink pair.

    Parameters
    ----------
    source, sink:
        Labels of the source and sink vertices.  They are added to the vertex
        set immediately.

    Notes
    -----
    The class intentionally stores edges in insertion order and exposes them
    through :meth:`edges`; algorithms and the circuit compiler rely on that
    stable ordering so that results are reproducible.
    """

    def __init__(self, source: Vertex = "s", sink: Vertex = "t") -> None:
        if source == sink:
            raise InvalidGraphError("source and sink must be distinct vertices")
        self._source: Vertex = source
        self._sink: Vertex = sink
        self._edges: List[Edge] = []
        self._out: Dict[Vertex, List[int]] = {}
        self._in: Dict[Vertex, List[int]] = {}
        self._flat: Optional[FlatView] = None
        self._frozen = False
        self.add_vertex(source)
        self.add_vertex(sink)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> Vertex:
        """Add ``vertex`` to the network (no-op if already present)."""
        if vertex not in self._out:
            if self._frozen:
                raise InvalidGraphError(_FROZEN)
            self._out[vertex] = []
            self._in[vertex] = []
            self._flat = None
        return vertex

    def add_edge(self, tail: Vertex, head: Vertex, capacity: float) -> Edge:
        """Add a directed edge ``tail -> head`` with the given capacity.

        Self-loops are rejected because they can never carry flow and the
        analog substrate has no widget for them.  Parallel edges are allowed.
        """
        if self._frozen:
            raise InvalidGraphError(_FROZEN)
        if tail == head:
            raise InvalidGraphError(f"self-loop on vertex {tail!r} is not allowed")
        if capacity < 0:
            raise InvalidGraphError(
                f"edge {tail!r}->{head!r} has negative capacity {capacity}"
            )
        self.add_vertex(tail)
        self.add_vertex(head)
        edge = Edge(len(self._edges), tail, head, float(capacity))
        self._edges.append(edge)
        self._out[tail].append(edge.index)
        self._in[head].append(edge.index)
        self._flat = None
        return edge

    def add_edges_from(
        self, triples: Iterable[Tuple[Vertex, Vertex, float]]
    ) -> List[Edge]:
        """Add many ``(tail, head, capacity)`` triples and return the edges."""
        return [self.add_edge(t, h, c) for t, h, c in triples]

    def set_capacity(self, index: int, capacity: float) -> Edge:
        """Replace the capacity of the edge at ``index`` (same endpoints).

        :class:`Edge` objects are immutable, so the edge is replaced by a
        fresh instance with the same index/tail/head; previously handed-out
        ``Edge`` references keep their old capacity (they are snapshots).
        This is the primitive the streaming update log
        (:class:`~repro.graph.updates.MutableFlowNetwork`) builds on.
        """
        if self._frozen:
            raise InvalidGraphError(_FROZEN)
        old = self.edge(index)
        if capacity < 0:
            raise InvalidGraphError(
                f"edge {old.tail!r}->{old.head!r} has negative capacity {capacity}"
            )
        replacement = Edge(index, old.tail, old.head, float(capacity))
        self._edges[index] = replacement
        self._flat = None
        return replacement

    # ------------------------------------------------------------------
    # Array view and freezing
    # ------------------------------------------------------------------

    def flat(self) -> FlatView:
        """The network as read-only arrays plus a digest (:class:`FlatView`).

        Built once and cached until a mutator changes the network; a frozen
        network keeps it for good.  Two threads building the view of one
        network at once build equal views, and the last store wins.

        Examples
        --------
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "a", 2.0)
        >>> _ = g.add_edge("a", "t", 1.5)
        >>> view = g.flat()
        >>> view.tail.tolist(), view.head.tolist(), view.capacity.tolist()
        ([0, 2], [2, 1], [2.0, 1.5])
        >>> g.flat() is view
        True
        >>> g.snapshot().flat().digest == view.digest
        True
        >>> _ = g.set_capacity(1, 1.0)
        >>> g.flat().digest == view.digest
        False
        """
        view = self._flat
        if view is None:
            view = self._flat = self._build_flat()
        return view

    def freeze(self) -> "FlowNetwork":
        """Make the network immutable in place; returns ``self``.

        Builds :meth:`flat` first, so the view and its digest are computed
        once.  Idempotent.  Afterwards :meth:`add_edge`,
        :meth:`set_capacity` and :meth:`add_vertex` of a new vertex raise
        :class:`~repro.errors.InvalidGraphError`; :meth:`snapshot` returns
        a mutable copy to edit.

        Examples
        --------
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "t", 3.0)
        >>> g.freeze() is g
        True
        >>> g.set_capacity(0, 100.0)
        Traceback (most recent call last):
        ...
        repro.errors.InvalidGraphError: network is frozen; edit a snapshot() instead
        >>> g.snapshot().set_capacity(0, 100.0).capacity
        100.0
        """
        self.flat()
        self._frozen = True
        return self

    def _build_flat(self) -> FlatView:
        count = len(self._edges)
        vertices = list(self._out)
        tail = _edge_ends(self._out, count)
        head = _edge_ends(self._in, count)
        capacity = np.fromiter(
            map(_CAPACITY, self._edges), dtype=np.float64, count=count
        )
        digest = hashlib.blake2b(
            repr((self._source, self._sink, vertices)).encode(), digest_size=32
        )
        digest.update(b"\x00")
        for array in (tail, head, capacity):
            array.flags.writeable = False
            digest.update(array)
        return FlatView(
            tail,
            head,
            capacity,
            vertices.index(self._source),
            vertices.index(self._sink),
            digest.hexdigest(),
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def source(self) -> Vertex:
        """The source vertex ``s``."""
        return self._source

    @property
    def sink(self) -> Vertex:
        """The sink vertex ``t``."""
        return self._sink

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|`` (including source and sink)."""
        return len(self._out)

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|``."""
        return len(self._edges)

    def vertices(self) -> List[Vertex]:
        """All vertices in insertion order."""
        return list(self._out.keys())

    def internal_vertices(self) -> List[Vertex]:
        """Vertices other than the source and the sink."""
        return [v for v in self._out if v != self._source and v != self._sink]

    def edges(self) -> List[Edge]:
        """All edges in insertion order (edge ``index`` equals position)."""
        return list(self._edges)

    def edge(self, index: int) -> Edge:
        """Return the edge with the given index."""
        try:
            return self._edges[index]
        except IndexError as exc:
            raise EdgeNotFoundError(f"no edge with index {index}") from exc

    def has_vertex(self, vertex: Vertex) -> bool:
        """True when ``vertex`` belongs to the network."""
        return vertex in self._out

    def has_edge(self, tail: Vertex, head: Vertex) -> bool:
        """True when at least one edge ``tail -> head`` exists."""
        if tail not in self._out:
            return False
        return any(self._edges[i].head == head for i in self._out[tail])

    def find_edges(self, tail: Vertex, head: Vertex) -> List[Edge]:
        """Return every edge going from ``tail`` to ``head``."""
        self._require_vertex(tail)
        self._require_vertex(head)
        return [self._edges[i] for i in self._out[tail] if self._edges[i].head == head]

    def out_edges(self, vertex: Vertex) -> List[Edge]:
        """Edges leaving ``vertex``."""
        self._require_vertex(vertex)
        return [self._edges[i] for i in self._out[vertex]]

    def in_edges(self, vertex: Vertex) -> List[Edge]:
        """Edges entering ``vertex``."""
        self._require_vertex(vertex)
        return [self._edges[i] for i in self._in[vertex]]

    def out_degree(self, vertex: Vertex) -> int:
        """Number of edges leaving ``vertex``."""
        self._require_vertex(vertex)
        return len(self._out[vertex])

    def in_degree(self, vertex: Vertex) -> int:
        """Number of edges entering ``vertex``."""
        self._require_vertex(vertex)
        return len(self._in[vertex])

    def degree(self, vertex: Vertex) -> int:
        """Total degree (in + out) of ``vertex``."""
        return self.in_degree(vertex) + self.out_degree(vertex)

    def neighbors(self, vertex: Vertex) -> List[Vertex]:
        """Distinct heads of edges leaving ``vertex``."""
        seen: Dict[Vertex, None] = {}
        for edge in self.out_edges(vertex):
            seen.setdefault(edge.head, None)
        return list(seen)

    def max_capacity(self) -> float:
        """Largest finite edge capacity ``C`` (0.0 for an edgeless network)."""
        finite = [e.capacity for e in self._edges if not e.is_uncapacitated]
        return max(finite) if finite else 0.0

    def total_capacity(self) -> float:
        """Sum of all finite edge capacities."""
        return sum(e.capacity for e in self._edges if not e.is_uncapacitated)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowNetwork(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"source={self._source!r}, sink={self._sink!r})"
        )

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------

    def copy(self) -> "FlowNetwork":
        """Return a deep copy of the network (alias of :meth:`snapshot`)."""
        return self.snapshot()

    def snapshot(self) -> "FlowNetwork":
        """Deep, independent checkpoint of the network.

        Every :class:`Edge` of the snapshot is a freshly constructed object
        (even when ``self`` holds instances of a mutable ``Edge`` subclass),
        vertices keep their insertion order and edge indices are preserved,
        so later :meth:`set_capacity` / :meth:`add_edge` calls on either
        network can never alias into the other.  Streaming sessions use this
        to checkpoint a revision before applying further updates.  The
        snapshot of a frozen network is mutable: it is how a frozen
        network is edited.
        """
        clone = FlowNetwork(self._source, self._sink)
        for vertex in self._out:
            clone.add_vertex(vertex)
        for edge in self._edges:
            # Rebuild through Edge directly (not the handed-in object) so a
            # snapshot never shares edge instances with the original.
            added = clone.add_edge(edge.tail, edge.head, float(edge.capacity))
            assert added.index == edge.index  # insertion order preserves indices
        return clone

    def reversed(self) -> "FlowNetwork":
        """Return the network with every edge reversed and s/t swapped."""
        rev = FlowNetwork(self._sink, self._source)
        for vertex in self._out:
            rev.add_vertex(vertex)
        for edge in self._edges:
            rev.add_edge(edge.head, edge.tail, edge.capacity)
        return rev

    def subgraph(self, vertices: Sequence[Vertex]) -> "FlowNetwork":
        """Return the induced subgraph on ``vertices`` (must contain s and t)."""
        keep = set(vertices)
        if self._source not in keep or self._sink not in keep:
            raise InvalidGraphError("subgraph must contain both source and sink")
        sub = FlowNetwork(self._source, self._sink)
        for vertex in self._out:
            if vertex in keep:
                sub.add_vertex(vertex)
        for edge in self._edges:
            if edge.tail in keep and edge.head in keep:
                sub.add_edge(edge.tail, edge.head, edge.capacity)
        return sub

    def adjacency_matrix(self) -> Tuple[List[Vertex], List[List[float]]]:
        """Dense capacity adjacency matrix and the vertex order used.

        Parallel edges are merged by summing capacities, matching the view
        the crossbar takes of the graph (one cell per vertex pair).
        """
        order = self.vertices()
        position = {v: i for i, v in enumerate(order)}
        matrix = [[0.0 for _ in order] for _ in order]
        for edge in self._edges:
            i, j = position[edge.tail], position[edge.head]
            matrix[i][j] += edge.capacity
        return order, matrix

    def vertex_index_map(self) -> Dict[Vertex, int]:
        """Mapping from vertex label to a dense 0-based index."""
        return {v: i for i, v in enumerate(self._out)}

    # ------------------------------------------------------------------
    # Flow utilities
    # ------------------------------------------------------------------

    def flow_value(self, flow: Dict[int, float]) -> float:
        """Net flow out of the source for a per-edge-index flow assignment."""
        out_flow = sum(flow.get(e.index, 0.0) for e in self.out_edges(self._source))
        in_flow = sum(flow.get(e.index, 0.0) for e in self.in_edges(self._source))
        return out_flow - in_flow

    def excess(self, flow: Dict[int, float], vertex: Vertex) -> float:
        """Flow into ``vertex`` minus flow out of it."""
        inflow = sum(flow.get(e.index, 0.0) for e in self.in_edges(vertex))
        outflow = sum(flow.get(e.index, 0.0) for e in self.out_edges(vertex))
        return inflow - outflow

    def check_flow(
        self,
        flow: Dict[int, float],
        capacity_tol: float = 1e-9,
        conservation_tol: float = 1e-9,
    ) -> List[str]:
        """Return a list of human-readable constraint violations (empty if feasible).

        Parameters
        ----------
        flow:
            Mapping from edge index to flow value.
        capacity_tol, conservation_tol:
            Absolute tolerances for capacity bounds and conservation.
        """
        view = self.flat()
        count = len(self._edges)
        # A missing key is 0.0 and a key that names no edge is ignored.
        values = np.fromiter(
            map(flow.get, range(count), repeat(0.0)), dtype=np.float64, count=count
        )
        negative = values < -capacity_tol
        # An INFINITY capacity never compares below a flow.
        over = values > view.capacity + capacity_tol
        problems: List[str] = []
        for index in np.flatnonzero(negative | over).tolist():
            edge, value = self._edges[index], flow.get(index, 0.0)
            if negative[index]:
                problems.append(
                    f"edge {index} ({edge.tail}->{edge.head}): negative flow {value}"
                )
            if over[index]:
                problems.append(
                    f"edge {index} ({edge.tail}->{edge.head}): flow {value} exceeds "
                    f"capacity {edge.capacity}"
                )
        size = len(self._out)
        # Summed in edge order per vertex, like excess(), so bit-identical.
        excess = np.bincount(view.head, weights=values, minlength=size)
        excess -= np.bincount(view.tail, weights=values, minlength=size)
        violated = np.abs(excess) > conservation_tol
        violated[[view.source, view.sink]] = False
        if violated.any():
            vertices = self.vertices()
            for position in np.flatnonzero(violated).tolist():
                vertex = vertices[position]
                problems.append(
                    f"vertex {vertex!r}: conservation violated by "
                    f"{self.excess(flow, vertex)}"
                )
        return problems

    def is_feasible_flow(
        self,
        flow: Dict[int, float],
        capacity_tol: float = 1e-9,
        conservation_tol: float = 1e-9,
    ) -> bool:
        """True when ``flow`` satisfies capacity and conservation constraints."""
        return not self.check_flow(flow, capacity_tol, conservation_tol)

    def cut_capacity(self, source_side: Iterable[Vertex]) -> float:
        """Capacity of the cut defined by the vertex set containing the source."""
        side = set(source_side)
        if self._source not in side:
            raise InvalidGraphError("source_side must contain the source vertex")
        if self._sink in side:
            raise InvalidGraphError("source_side must not contain the sink vertex")
        total = 0.0
        for edge in self._edges:
            if edge.tail in side and edge.head not in side:
                total += edge.capacity
        return total

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _require_vertex(self, vertex: Vertex) -> None:
        if vertex not in self._out:
            raise VertexNotFoundError(f"vertex {vertex!r} is not in the network")


_CAPACITY = attrgetter("capacity")


def _edge_ends(adjacency: Dict[Vertex, List[int]], count: int) -> np.ndarray:
    """Per-edge vertex position from a vertex → edge-indices adjacency.

    ``adjacency`` (``_out`` or ``_in``) is keyed in vertex insertion order
    and lists every edge index exactly once, so the position of its key is
    that edge's tail (or head).
    """
    lists = adjacency.values()
    sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(adjacency))
    ends = np.empty(count, dtype=np.int64)
    ends[np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=count)] = (
        np.repeat(np.arange(len(adjacency), dtype=np.int64), sizes)
    )
    return ends
