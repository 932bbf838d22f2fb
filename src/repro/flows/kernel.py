"""Flat-array (CSR) max-flow kernel.

The object-based solvers in this package spend nearly all of their time in
the Python interpreter: one attribute lookup and one list index per arc
scan.  This module re-implements max-flow on a *flat* residual
representation — contiguous NumPy arrays built once per solve — so the hot
loops become whole-array operations:

* ``arc_tail`` / ``arc_head`` (int64) and ``residual`` (float64) store the
  arc-pair layout of :class:`~repro.flows.base.ResidualNetwork` unchanged:
  edge ``k`` owns forward arc ``2k`` and reverse arc ``2k + 1``, and the
  partner of ``arc`` is ``arc ^ 1``;
* ``indptr`` / ``arcs_by_tail`` form a CSR adjacency (arcs grouped by tail
  vertex) used to gather the arcs of all active vertices in one go;
* the solve is a *two-phase lockstep preflow-push* (the structure GPU
  max-flow kernels use): exact distance labels come from one compiled
  reverse BFS over the same CSR (:func:`scipy.sparse.csgraph.dijkstra`
  with unit weights), and every sweep discharges **all** active vertices
  at once with a segmented prefix-sum fill, then relabels every vertex
  whose own excess was left over.  Phase 1 drives excess towards the sink
  (with a gap heuristic and periodic exact relabels); phase 2 re-labels
  by distance-to-source and returns the stranded excess.  Interpreter
  cost scales with the number of sweeps and relabels, not the number of
  arcs or the depth of the graph.

The kernel produces the same flow values as the reference implementations
to 1e-9 relative (see ``tests/test_kernel_differential.py``);
uncapacitated arcs keep their ``INFINITY`` residual because
``inf - x == inf`` matches the reference's explicit skip in
:meth:`ResidualNetwork.push`.

Fused solves
------------
Several same-shape networks queued to solve one after another (the
serving front door's classical lane, see
:class:`~repro.service.server.AsyncSolveServer`) can share one kernel
call.  Each member solves inside its own :func:`fusion_scope` over one
shared :class:`FusedSolves`; the first member to reach
:meth:`KernelDinic.solve` lowers itself and every later member not yet
solved, joins them behind a super source and sink (one ``S*→s_k`` and one
``t_k→T*`` arc per member) and runs :meth:`FlatResidual.max_flow` once.
The union's max flow restricted to one member's edges is a max flow of
that member, because the members share no vertex but ``S*`` and ``T*``.
Later members read their share.  Two rules keep the union exact:

* ``eps`` and ``tol`` are global to one :class:`FlatResidual`, so inside
  the union every member is scaled by a power of two that brings its
  largest capacity into ``[0.5, 1)``, and its flows are scaled back
  exactly (unscaled, a member far smaller than its neighbours falls
  under their saturation threshold and loses its flow);
* a network with an uncapacitated edge is solved alone: its finite
  surrogate source push depends on every capacity in the residual.

Selection
---------
:class:`KernelDinic` registers as ``"kernel"`` in
:mod:`repro.flows.registry`, whose ``DEFAULT_EXACT_ALGORITHM`` names it as
the engine of every cold exact solve that names no algorithm.  ``"dinic"``
always means the pure-Python reference, so a failover chain that falls
back from ``"kernel"`` to ``"dinic"`` runs a different engine.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from ..errors import AlgorithmError
from ..obs import probes
from ..obs.trace import annotate_span
from ..resilience.policy import check_deadline
from ..graph.network import FlowNetwork
from .base import (
    FlowAlgorithm,
    MaxFlowResult,
    OperationCounter,
    ResidualNetwork,
    validate_max_flow,
)

__all__ = ["FlatResidual", "FusedSolves", "KernelDinic", "fusion_scope"]


class FlatResidual:
    """Residual graph as contiguous NumPy arrays (same arc-pair layout).

    Build one with :meth:`from_network` (cold solves) or
    :meth:`from_residual` (export of an object residual for warm starts);
    :meth:`store_into` writes the final residual capacities back into the
    object representation, round-tripping all state the reference solvers
    maintain.
    """

    def __init__(
        self,
        num_vertices: int,
        source: int,
        sink: int,
        arc_tail: np.ndarray,
        arc_head: np.ndarray,
        residual: np.ndarray,
        arcs_by_tail: Optional[np.ndarray] = None,
        indptr: Optional[np.ndarray] = None,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.source = int(source)
        self.sink = int(sink)
        self.arc_tail = arc_tail
        self.arc_head = arc_head
        # float64 unconditionally: int or mixed int/float capacity inputs
        # must not truncate (the dtype-promotion guard of the fuzz suite).
        self.residual = np.asarray(residual, dtype=np.float64)
        if arcs_by_tail is None:
            arcs_by_tail = np.argsort(arc_tail, kind="stable").astype(np.int64)
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            counts = np.bincount(arc_tail, minlength=self.num_vertices)
            np.cumsum(counts, out=indptr[1:])
        self.arcs_by_tail = arcs_by_tail
        self.indptr = indptr
        finite = self.residual[np.isfinite(self.residual)]
        scale = float(finite.max()) if finite.size else 1.0
        #: Finite surrogate for an unbounded source excess; also the fill
        #: limit that keeps INFINITY capacities out of the prefix sums.
        self.flow_cap = float(finite.sum()) + 1.0
        #: Arcs with residual below this are treated as saturated.
        self.eps = 1e-12 * max(1.0, scale)
        #: Excess below this is considered drained (float round-off from
        #: the segmented prefix sums; a few ULP of ``flow_cap``).
        self.tol = 64.0 * np.finfo(np.float64).eps * max(1.0, self.flow_cap)
        self.counter = OperationCounter()
        #: The reversed graph of :meth:`_reverse_bfs`, built on first use.
        self._reversed = None

    # ------------------------------------------------------------------
    # Construction / adapter boundary
    # ------------------------------------------------------------------

    @classmethod
    def from_network(cls, network: FlowNetwork) -> "FlatResidual":
        """Flat residual of ``network`` (forward arcs at capacity).

        Lowered from the network's cached array view
        (:meth:`~repro.graph.network.FlowNetwork.flat`), with no Python
        pass over its edges.
        """
        view = network.flat()
        return cls._from_edges(
            network.num_vertices, view.source, view.sink,
            view.tail, view.head, view.capacity,
        )

    @classmethod
    def _from_edges(
        cls,
        num_vertices: int,
        source: int,
        sink: int,
        tails: np.ndarray,
        heads: np.ndarray,
        caps: np.ndarray,
    ) -> "FlatResidual":
        """Flat residual of an edge list: edge ``k`` owns arcs ``2k``, ``2k + 1``."""
        count = tails.shape[0]
        arc_tail = np.empty(2 * count, dtype=np.int64)
        arc_tail[0::2] = tails
        arc_tail[1::2] = heads
        arc_head = np.empty(2 * count, dtype=np.int64)
        arc_head[0::2] = heads
        arc_head[1::2] = tails
        residual = np.zeros(2 * count, dtype=np.float64)
        residual[0::2] = caps
        return cls(num_vertices, source, sink, arc_tail, arc_head, residual)

    @classmethod
    def from_residual(cls, residual: ResidualNetwork) -> "FlatResidual":
        """Export an object residual (possibly carrying flow) to flat arrays.

        The conversion is a handful of C-level bulk copies — no per-arc
        Python loop — and preserves each vertex's adjacency order, so the
        flat arrays are a faithful snapshot of the warm residual state.
        """
        arc_tail = np.asarray(residual.arc_from, dtype=np.int64)
        arc_head = np.asarray(residual.arc_to, dtype=np.int64)
        values = np.asarray(residual.residual, dtype=np.float64)
        num_vertices = residual.num_vertices
        counts = np.fromiter(
            (len(arcs) for arcs in residual.adjacency), dtype=np.int64, count=num_vertices
        )
        arcs_by_tail = np.fromiter(
            chain.from_iterable(residual.adjacency),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            num_vertices,
            residual.source,
            residual.sink,
            arc_tail,
            arc_head,
            values,
            arcs_by_tail=arcs_by_tail,
            indptr=indptr,
        )

    def store_into(self, residual: ResidualNetwork) -> None:
        """Write the flat residual capacities back into an object residual."""
        if len(residual.residual) != self.residual.shape[0]:
            raise AlgorithmError(
                "flat residual no longer matches the object residual "
                f"({self.residual.shape[0]} vs {len(residual.residual)} arcs)"
            )
        residual.residual[:] = self.residual.tolist()

    def edge_flows(self) -> Dict[int, float]:
        """Per-edge flow for a :meth:`from_network` flat residual.

        Valid only when every arc pair belongs to an original edge (the
        ``arc == 2k`` invariant); warm residuals with appended arc pairs go
        through :meth:`store_into` and the object-side accounting instead.
        """
        return dict(enumerate(self.residual[1::2].tolist()))

    # ------------------------------------------------------------------
    # Two-phase lockstep preflow-push
    # ------------------------------------------------------------------

    #: Phase-1 sweeps between exact distance relabels.  One relabel costs
    #: about 2, 4 and 8 sweeps at 272, 6,324 and 27,552 edges; a shorter
    #: interval runs fewer sweeps but pays more relabels, and no interval
    #: among 12, 16 and 32 was faster than 24 at all three sizes.
    RELABEL_EVERY = 24
    #: Phase 2 usually drains in few sweeps; cheap frequent relabels keep
    #: the return cascade on exact distance-to-source labels.
    RELABEL_EVERY_RETURN = 8

    def max_flow(self) -> int:
        """Drive the residual to a maximum flow; returns the sweep count.

        Two-phase preflow-push in lockstep sweeps.  Phase 1 saturates the
        source arcs and discharges all active vertices below height ``V``
        simultaneously each sweep until the sink inflow is maximal; phase 2
        re-labels everything by distance to the source and returns the
        stranded excess.  The count of sweeps is the ``iterations`` figure
        reported by :class:`KernelDinic` (the vectorised analogue of the
        reference solvers' phase counts).
        """
        if self.source == self.sink:
            return 0
        num_vertices = self.num_vertices
        source, sink = self.source, self.sink
        residual = self.residual
        indptr = self.indptr
        eps, tol, limit = self.eps, self.tol, self.flow_cap

        height = np.zeros(num_vertices, dtype=np.int64)
        excess = np.zeros(num_vertices, dtype=np.float64)
        interior = np.ones(num_vertices, dtype=bool)
        interior[[source, sink]] = False

        def relabel_towards_sink() -> None:
            dist = self._reverse_bfs(sink)
            np.minimum(dist, num_vertices + 1, out=dist)
            dist[source] = num_vertices
            np.maximum(height, dist, out=height)
            self.counter.global_relabels += 1

        def relabel_towards_source() -> None:
            dist = self._reverse_bfs(source)
            reachable = dist <= num_vertices
            fresh = np.where(reachable, num_vertices + dist, 2 * num_vertices)
            fresh[source] = num_vertices
            fresh[sink] = height[sink]
            np.maximum(height, fresh, out=height)
            self.counter.global_relabels += 1

        # Initial exact labels, then saturate every usable source arc
        # (INFINITY arcs push the finite flow_cap surrogate, like the
        # reference push-relabel's total-capacity stand-in).
        relabel_towards_sink()
        source_arcs = self.arcs_by_tail[indptr[source] : indptr[source + 1]]
        source_arcs = source_arcs[residual[source_arcs] > eps]
        amount = np.minimum(residual[source_arcs], limit)
        residual[source_arcs] -= amount
        residual[source_arcs ^ 1] += amount
        np.add.at(excess, self.arc_head[source_arcs], amount)
        self.counter.pushes += int(source_arcs.size)

        sweeps = self._discharge_loop(
            height,
            excess,
            interior,
            phase_one=True,
            relabel=relabel_towards_sink,
            relabel_every=self.RELABEL_EVERY,
        )
        if bool(((excess > tol) & interior).any()):
            # Fresh exact return labels: height becomes V + dist-to-source
            # (2V when unreachable), a valid labeling because phase 1 left
            # stranded excess only at sink-unreachable vertices.
            dist = self._reverse_bfs(source)
            reachable = dist <= num_vertices
            fresh = np.where(reachable, num_vertices + dist, 2 * num_vertices)
            height[interior] = fresh[interior]
            height[source] = num_vertices
            sweeps += self._discharge_loop(
                height,
                excess,
                interior,
                phase_one=False,
                relabel=relabel_towards_source,
                relabel_every=self.RELABEL_EVERY_RETURN,
            )
        return sweeps

    def _reverse_bfs(self, root: int) -> np.ndarray:
        """Distance from every vertex *to* ``root`` along residual arcs.

        One compiled BFS from ``root`` over the reversed residual graph.
        The arcs entering ``v`` are the partners of ``v``'s out-arcs, so
        that graph's row ``v`` is ``v``'s CSR segment with the heads as
        columns, built once; each call weighs an entry 1 where its partner
        has residual and ``inf`` where it has none, which a search limited
        to ``num_vertices`` never relaxes.  Unreached vertices get
        ``4 * num_vertices``.  The counters advance as a frontier BFS's
        would: one queue operation per reached vertex, one arc scan per
        out-arc of each.
        """
        if self._reversed is None:
            # int32 indices are csgraph's own, so no call converts them.
            heads = self.arc_head[self.arcs_by_tail].astype(np.int32)
            indptr = self.indptr.astype(np.int32)
            shape = (self.num_vertices, self.num_vertices)
            graph = csr_array((np.ones(heads.size), heads, indptr), shape)
            self._reversed = (self.arcs_by_tail ^ 1, graph, np.diff(self.indptr))
        partners, graph, degree = self._reversed
        graph.data = np.where(self.residual[partners] > self.eps, 1.0, np.inf)
        dist = dijkstra(graph, indices=root, limit=self.num_vertices)
        reached = np.isfinite(dist)
        dist[~reached] = 4 * self.num_vertices
        self.counter.queue_operations += int(np.count_nonzero(reached))
        self.counter.arc_scans += int(degree[reached].sum())
        return dist.astype(np.int64)

    def _discharge_loop(
        self,
        height: np.ndarray,
        excess: np.ndarray,
        interior: np.ndarray,
        phase_one: bool,
        relabel,
        relabel_every: int,
    ) -> int:
        """Lockstep discharge sweeps until no vertex is active.

        Every sweep gathers the CSR arc segments of *all* active vertices,
        pushes with one segmented greedy fill, and relabels each vertex
        whose **own** pre-sweep excess was not fully placed (excess that
        arrived during the sweep waits a sweep; relabelling on arrivals
        would jump past still-admissible arcs).  Phase 1 additionally
        applies the gap heuristic: when some height below ``V`` has no
        vertex, everything between it and ``V`` can never reach the sink
        again and is lifted out of the phase in O(V).
        """
        num_vertices = self.num_vertices
        residual = self.residual
        indptr = self.indptr
        arcs_by_tail = self.arcs_by_tail
        arc_head = self.arc_head
        eps, tol, limit = self.eps, self.tol, self.flow_cap
        big = 4 * num_vertices
        counter = self.counter
        sweeps = 0
        cap = 30 * num_vertices + 10000
        while True:
            check_deadline("kernel discharge sweep")
            probes.kernel_sweep()
            mask = (excess > tol) & interior
            if phase_one:
                mask &= height < num_vertices
            active = np.nonzero(mask)[0]
            if active.size == 0:
                return sweeps
            sweeps += 1
            if sweeps % relabel_every == 0:
                relabel()
            starts = indptr[active]
            cnt = indptr[active + 1] - starts
            pos, first = _expand(starts, cnt)
            arcs = arcs_by_tail[pos]
            heads = arc_head[arcs]
            counter.arc_scans += int(pos.size)
            gathered = residual[arcs]
            admissible = gathered > eps
            admissible &= np.repeat(height[active], cnt) == height[heads] + 1
            avail = np.where(admissible, gathered, 0.0)
            push = _segmented_fill(excess[active], avail, cnt, first, limit)
            pushed_out = np.add.reduceat(push, first)
            leftover = (excess[active] - pushed_out) > tol
            residual[arcs] -= push
            residual[arcs ^ 1] += push
            np.add(
                excess,
                np.bincount(heads, weights=push, minlength=num_vertices),
                out=excess,
            )
            excess[active] -= pushed_out
            counter.pushes += int(np.count_nonzero(push))
            if leftover.any():
                # Standard relabel: 1 + min height over residual arcs.  The
                # lockstep jump is monotone (np.maximum) and valid because
                # a leftover vertex saturated every admissible arc.
                candidates = np.where(
                    residual[arcs] > eps, height[heads] + 1, big
                )
                lifted = active[leftover]
                height[lifted] = np.maximum(
                    height[lifted],
                    np.minimum.reduceat(candidates, first)[leftover],
                )
                counter.relabels += int(lifted.size)
                if phase_one:
                    self._gap_heuristic(height, interior)
            if sweeps > cap:
                raise AlgorithmError(
                    "kernel discharge failed to settle "
                    f"({sweeps} sweeps on {num_vertices} vertices)"
                )

    def _gap_heuristic(self, height: np.ndarray, interior: np.ndarray) -> None:
        """Lift every vertex above an empty height level out of phase 1.

        If no interior vertex sits at some height ``0 < g < V`` then no
        residual path from above ``g`` can descend to the sink (heights
        drop by at most one per residual arc), so everything in
        ``(g, V)`` is lifted to ``V + 1`` at once.
        """
        num_vertices = self.num_vertices
        below = height[interior]
        below = below[below < num_vertices]
        if below.size == 0:
            return
        histogram = np.bincount(below, minlength=num_vertices)
        top = int(below.max())
        empty = np.nonzero(histogram[1 : top + 1] == 0)[0]
        if empty.size == 0:
            return
        gap = int(empty[0]) + 1
        lifted = interior & (height > gap) & (height < num_vertices)
        if lifted.any():
            height[lifted] = num_vertices + 1
            self.counter.relabels += int(np.count_nonzero(lifted))


def _expand(starts: np.ndarray, cnt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """CSR range expansion: flat positions of each segment plus segment firsts."""
    total = int(cnt.sum())
    first = np.zeros(cnt.size, dtype=np.int64)
    np.cumsum(cnt[:-1], out=first[1:])
    pos = np.repeat(starts - first, cnt) + np.arange(total)
    return pos, first


def _segmented_fill(
    amounts: np.ndarray,
    avail: np.ndarray,
    cnt: np.ndarray,
    first: np.ndarray,
    limit: float,
) -> np.ndarray:
    """Greedy in-order fill of each segment's arcs with its vertex amount.

    Vectorised equivalent of "walk the arcs, push min(remaining, avail)":
    clip the remaining amount (amount minus the exclusive prefix sum of
    availability within the segment) to each arc's availability.  ``limit``
    (a finite bound on any possible amount) stands in for INFINITY
    capacities inside the prefix sums so they stay NaN-free.
    """
    capped = np.minimum(avail, limit)
    prefix = np.cumsum(capped)
    prefix -= capped
    want = np.repeat(amounts + prefix[first], cnt) - prefix
    return np.clip(want, 0.0, avail)


#: One kernel answer: per-edge flows, sweep count and operation counters.
_Share = Tuple[Dict[int, float], int, OperationCounter]

_FUSION: ContextVar[Optional[Tuple["FusedSolves", int]]] = ContextVar(
    "repro_kernel_fusion", default=None
)


class FusedSolves:
    """Networks solved one after another, fused into one kernel call.

    See the module notes.  The union runs under the deadline ambient for
    the member that runs it; a union that raises stores nothing, so only
    that member fails and the next one to arrive fuses the rest again
    under its own budget.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.flows.kernel import FusedSolves, KernelDinic, fusion_scope
    >>> small, large = FlowNetwork(), FlowNetwork()
    >>> _ = small.add_edge("s", "t", 0.5)
    >>> _ = large.add_edge("s", "a", 4000.0)
    >>> _ = large.add_edge("a", "t", 3000.0)
    >>> group = FusedSolves([small, large])
    >>> with fusion_scope(group, 0):  # solves both networks in one call
    ...     first = KernelDinic().solve(small)
    >>> with fusion_scope(group, 1):  # reads its share of that call
    ...     second = KernelDinic().solve(large, validate=True)
    >>> first.flow_value, second.flow_value, group.fused
    (0.5, 3000.0, 1)
    """

    def __init__(self, networks: Sequence[FlowNetwork]) -> None:
        self.networks = list(networks)
        #: Members answered from a union another member ran.
        self.fused = 0
        self._shares: Dict[int, _Share] = {}

    def solve(self, member: int) -> _Share:
        """Member ``member``'s answer: its share, or a union it runs."""
        share = self._shares.pop(member, None)
        if share is not None:
            check_deadline("kernel fused share")
            self.fused += 1
            return share
        flat = FlatResidual.from_network(self.networks[member])
        members, flats = [member], [flat]
        if _fusable(flat):
            for later in range(member + 1, len(self.networks)):
                if later in self._shares:
                    continue
                other = FlatResidual.from_network(self.networks[later])
                if _fusable(other):
                    members.append(later)
                    flats.append(other)
        if len(members) == 1:
            return _solve_flat(flat)
        union, layout = _fuse(flats)
        sweeps = union.max_flow()
        annotate_span(
            kernel_sweeps=sweeps,
            kernel_pushes=union.counter.pushes,
            kernel_relabels=union.counter.relabels,
            kernel_fused=len(members),
        )
        reverse = union.residual[1::2]
        shares = [
            (dict(enumerate((reverse[first : first + count] * scale).tolist())),
             sweeps, union.counter)
            for first, count, scale in layout
        ]
        self._shares.update(zip(members[1:], shares[1:]))
        return shares[0]


@contextmanager
def fusion_scope(group: FusedSolves, member: int) -> Iterator[None]:
    """Solve as member ``member`` of ``group`` for the ``with`` block.

    A context variable like :func:`~repro.resilience.policy.deadline_scope`,
    so a caller that hops threads re-enters it in the worker.  Only a
    :meth:`KernelDinic.solve` of the member's own network object goes
    through the group.
    """
    token = _FUSION.set((group, member))
    try:
        yield
    finally:
        _FUSION.reset(token)


def _fusable(flat: FlatResidual) -> bool:
    """Whether a lowered network may join a union (see the module notes)."""
    return flat.source != flat.sink and bool(np.isfinite(flat.residual).all())


def _fuse(flats: List[FlatResidual]) -> Tuple[FlatResidual, List[Tuple[int, int, float]]]:
    """Disjoint union of ``flats`` behind super source 0 and super sink 1.

    Member ``k``'s vertices are shifted past the members before it, and
    its ``S*→s_k`` and ``t_k→T*`` arcs carry its source out-capacity and
    sink in-capacity, which bound none of its cuts.  Returns the union
    and, per member, ``(first edge, edge count, scale)``.
    """
    tails, heads, caps, layout = [], [], [], []
    super_tails, super_heads, super_caps = [], [], []
    vertex, edge = 2, 0
    for flat in flats:
        cap = flat.residual[0::2]
        top = float(cap.max()) if cap.size else 0.0
        scale = math.ldexp(1.0, math.frexp(top)[1]) if top > 0.0 else 1.0
        cap = cap / scale
        tail, head = flat.arc_tail[0::2], flat.arc_head[0::2]
        tails.append(tail + vertex)
        heads.append(head + vertex)
        caps.append(cap)
        super_tails += [0, flat.sink + vertex]
        super_heads += [flat.source + vertex, 1]
        super_caps += [cap[tail == flat.source].sum(), cap[head == flat.sink].sum()]
        layout.append((edge, cap.shape[0], scale))
        vertex += flat.num_vertices
        edge += cap.shape[0]
    union = FlatResidual._from_edges(
        vertex,
        0,
        1,
        np.concatenate(tails + [np.asarray(super_tails, dtype=np.int64)]),
        np.concatenate(heads + [np.asarray(super_heads, dtype=np.int64)]),
        np.concatenate(caps + [np.asarray(super_caps, dtype=np.float64)]),
    )
    return union, layout


def _solve_flat(flat: FlatResidual) -> _Share:
    """Solve one lowered network alone."""
    sweeps = flat.max_flow()
    annotate_span(
        kernel_sweeps=sweeps,
        kernel_pushes=flat.counter.pushes,
        kernel_relabels=flat.counter.relabels,
    )
    return flat.edge_flows(), sweeps, flat.counter


class KernelDinic(FlowAlgorithm):
    """The flat-array kernel, registered as ``"kernel"``.

    Behaviourally a drop-in for :class:`~repro.flows.dinic.Dinic`: the same
    arc-pair residual semantics, the same warm-start contract via
    :meth:`augment_residual`, the same exact flow values.  The engine,
    however, is the two-phase lockstep preflow of :class:`FlatResidual` —
    Dinic-style exact BFS distance labels drive a vectorised discharge
    instead of blocking-flow DFS, because a per-sweep whole-array discharge
    is what NumPy executes fast.  ``iterations`` therefore counts discharge
    sweeps, not Dinic phases.
    """

    name = "kernel"

    def solve(self, network: FlowNetwork, validate: bool = False) -> MaxFlowResult:
        """Solve on flat arrays end to end (no object residual is built).

        Inside a :func:`fusion_scope` whose member is ``network`` itself,
        the answer comes from that member's :class:`FusedSolves` group.
        """
        start = time.perf_counter()
        scoped = _FUSION.get()
        if scoped is not None and scoped[0].networks[scoped[1]] is network:
            edge_flows, phases, counter = scoped[0].solve(scoped[1])
        else:
            edge_flows, phases, counter = _solve_flat(FlatResidual.from_network(network))
        elapsed = time.perf_counter() - start
        result = MaxFlowResult(
            flow_value=network.flow_value(edge_flows),
            edge_flows=edge_flows,
            algorithm=self.name,
            operations=counter,
            wall_time_s=elapsed,
            iterations=phases,
        )
        if validate:
            validate_max_flow(network, result)
        return result

    def _run(self, network: FlowNetwork) -> Tuple[ResidualNetwork, int]:
        residual = ResidualNetwork(network)
        return residual, self.augment_residual(residual)

    def augment_residual(self, residual: ResidualNetwork) -> int:
        """Warm-start phases on an object residual via the flat round-trip.

        Exports the residual (including any flow it already carries and any
        arc pairs appended by the incremental solver), augments on the flat
        arrays, and stores the final capacities back — the same resume
        semantics as :meth:`Dinic.augment_residual`.  Returns the number of
        phases run.
        """
        flat = FlatResidual.from_residual(residual)
        phases = flat.max_flow()
        flat.store_into(residual)
        residual.counter = residual.counter.merged_with(flat.counter)
        return phases
