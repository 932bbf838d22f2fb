"""Typed update log for dynamic flow networks (the streaming graph layer).

Production traffic is rarely a stream of *fresh* instances: it is a stream of
small edits — capacity re-weightings, link failures, edge insertions — to a
mostly-unchanged network.  :class:`MutableFlowNetwork` wraps a
:class:`~repro.graph.network.FlowNetwork` with a typed, batched update API so
every downstream consumer (incremental classical solvers, the analog warm
re-solve path, compiled-circuit caches) sees the *same* normalised view of an
edit batch:

* :class:`CapacityUpdate` — re-weight an existing edge;
* :class:`EdgeInsert` — add a new edge (new vertices are created on demand);
* :class:`EdgeRemove` — fail a link.  Removal is a *tombstone*: the edge
  stays in the underlying network with capacity 0 so that edge indices (and
  therefore circuit-node names, residual-arc pairings and cached sparsity
  patterns) remain stable.  A zero-capacity edge can never carry flow, so
  the semantics match true deletion for every solver.

Each applied batch bumps a monotonic :attr:`~MutableFlowNetwork.revision`
counter; batches that change the *sparsity pattern* (edge inserts, or a
capacity crossing between finite and infinite — which adds/drops a clamp in
the analog circuit) additionally bump
:attr:`~MutableFlowNetwork.structural_revision`: capacity-only churn may
reuse compiled artifacts, structural churn invalidates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple, Union

from ..errors import EdgeNotFoundError, InvalidGraphError
from .network import Edge, FlowNetwork

__all__ = [
    "CapacityUpdate",
    "EdgeInsert",
    "EdgeRemove",
    "UpdateEvent",
    "UpdateBatch",
    "MutableFlowNetwork",
]

Vertex = Hashable


@dataclass(frozen=True)
class CapacityUpdate:
    """Set the capacity of an existing edge to a new nonnegative value."""

    edge_index: int
    capacity: float


@dataclass(frozen=True)
class EdgeInsert:
    """Insert a new directed edge ``tail -> head`` with the given capacity."""

    tail: Vertex
    head: Vertex
    capacity: float


@dataclass(frozen=True)
class EdgeRemove:
    """Remove (fail) the edge at ``edge_index``.

    Applied as a capacity-0 tombstone so edge indices stay stable; see the
    module docstring.
    """

    edge_index: int


UpdateEvent = Union[CapacityUpdate, EdgeInsert, EdgeRemove]


@dataclass(frozen=True)
class UpdateBatch:
    """Normalised outcome of one :meth:`MutableFlowNetwork.apply` call.

    Attributes
    ----------
    revision:
        The network revision *after* this batch.
    structural:
        True when the batch changed the sparsity pattern (edge inserts or a
        finite/infinite capacity transition); downstream compiled artifacts
        must be rebuilt.
    capacity_changes:
        ``edge_index -> (old_capacity, new_capacity)`` for every edge whose
        capacity moved (re-weightings *and* removals; inserted edges are
        listed separately).
    inserted_edges:
        Freshly created :class:`~repro.graph.network.Edge` objects, in
        application order.
    removed_edges:
        Indices tombstoned by :class:`EdgeRemove` events.
    """

    revision: int
    structural: bool
    capacity_changes: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    inserted_edges: Tuple[Edge, ...] = ()
    removed_edges: Tuple[int, ...] = ()

    @property
    def num_changed_edges(self) -> int:
        """Edges touched by the batch (re-weighted, removed or inserted)."""
        return len(self.capacity_changes) + len(self.inserted_edges)

    @property
    def capacity_only(self) -> bool:
        """True when the batch is re-weightings/removals only (no inserts)."""
        return not self.structural


class MutableFlowNetwork:
    """A flow network plus a typed, revision-counted update log.

    Parameters
    ----------
    network:
        The initial network.  A deep :meth:`~FlowNetwork.snapshot` is taken
        by default so the caller's instance is never mutated; pass
        ``copy=False`` to take ownership of ``network`` directly.
    copy:
        Whether to snapshot ``network`` at construction (default True).

    Examples
    --------
    >>> from repro.graph import FlowNetwork
    >>> from repro.graph.updates import CapacityUpdate, MutableFlowNetwork
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 2.0)
    >>> _ = g.add_edge("a", "t", 1.0)
    >>> dynamic = MutableFlowNetwork(g)
    >>> batch = dynamic.apply([CapacityUpdate(1, 3.0)])
    >>> (batch.revision, batch.structural, dynamic.network.edge(1).capacity)
    (1, False, 3.0)
    """

    def __init__(self, network: FlowNetwork, copy: bool = True) -> None:
        self._network = network.snapshot() if copy else network
        self._revision = 0
        self._structural_revision = 0
        self._removed: set = set()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def network(self) -> FlowNetwork:
        """The live network (mutated in place by :meth:`apply`)."""
        return self._network

    @property
    def revision(self) -> int:
        """Monotonic revision counter; +1 per applied batch."""
        return self._revision

    @property
    def structural_revision(self) -> int:
        """Revision of the sparsity pattern; bumps only on structural batches."""
        return self._structural_revision

    def is_removed(self, edge_index: int) -> bool:
        """True when ``edge_index`` was tombstoned by an :class:`EdgeRemove`."""
        return edge_index in self._removed

    def live_edges(self) -> List[Edge]:
        """Edges that have not been removed."""
        return [e for e in self._network.edges() if e.index not in self._removed]

    def snapshot(self) -> FlowNetwork:
        """Deep checkpoint of the current revision (see :meth:`FlowNetwork.snapshot`)."""
        return self._network.snapshot()

    # ------------------------------------------------------------------
    # Update application
    # ------------------------------------------------------------------

    def apply(self, events: Iterable[UpdateEvent]) -> UpdateBatch:
        """Apply a batch of update events atomically and bump the revision.

        The batch is validated *before* any mutation: an invalid event
        (unknown edge index, negative capacity, update of a removed edge,
        self-loop insert) raises and leaves the network untouched.

        Parameters
        ----------
        events:
            Update events applied in order.  Later events in one batch see
            the effect of earlier ones (an inserted edge may be re-weighted
            by a following :class:`CapacityUpdate` using its new index).

        Returns
        -------
        UpdateBatch
            Normalised summary of what changed.
        """
        batch = list(events)
        self._validate(batch)

        capacity_changes: Dict[int, Tuple[float, float]] = {}
        inserted: List[Edge] = []
        removed: List[int] = []
        structural = False

        for event in batch:
            if isinstance(event, EdgeInsert):
                edge = self._network.add_edge(
                    event.tail, event.head, float(event.capacity)
                )
                inserted.append(edge)
                structural = True
            elif isinstance(event, EdgeRemove):
                old = self._network.edge(event.edge_index).capacity
                if math.isinf(old):
                    structural = True  # the upper clamp disappears
                self._network.set_capacity(event.edge_index, 0.0)
                self._removed.add(event.edge_index)
                first_old = capacity_changes.get(event.edge_index, (old, old))[0]
                capacity_changes[event.edge_index] = (first_old, 0.0)
                removed.append(event.edge_index)
            else:  # CapacityUpdate
                old = self._network.edge(event.edge_index).capacity
                new = float(event.capacity)
                if math.isinf(old) != math.isinf(new):
                    structural = True
                if old != new:
                    self._network.set_capacity(event.edge_index, new)
                    first_old = capacity_changes.get(event.edge_index, (old, old))[0]
                    capacity_changes[event.edge_index] = (first_old, new)

        self._revision += 1
        if structural:
            self._structural_revision += 1
        return UpdateBatch(
            revision=self._revision,
            structural=structural,
            capacity_changes=capacity_changes,
            inserted_edges=tuple(inserted),
            removed_edges=tuple(removed),
        )

    # ------------------------------------------------------------------

    def _validate(self, batch: Sequence[UpdateEvent]) -> None:
        num_edges = self._network.num_edges
        pending_inserts = 0
        removed = set(self._removed)
        for event in batch:
            if isinstance(event, EdgeInsert):
                if event.tail == event.head:
                    raise InvalidGraphError(
                        f"self-loop insert on vertex {event.tail!r} is not allowed"
                    )
                if event.capacity < 0:
                    raise InvalidGraphError(
                        f"insert {event.tail!r}->{event.head!r} has negative "
                        f"capacity {event.capacity}"
                    )
                pending_inserts += 1
                continue
            index = event.edge_index
            if not 0 <= index < num_edges + pending_inserts:
                raise EdgeNotFoundError(f"no edge with index {index}")
            if index in removed:
                raise EdgeNotFoundError(f"edge {index} was removed earlier")
            if isinstance(event, CapacityUpdate) and event.capacity < 0:
                raise InvalidGraphError(
                    f"edge {index} assigned negative capacity {event.capacity}"
                )
            if isinstance(event, EdgeRemove):
                removed.add(index)
