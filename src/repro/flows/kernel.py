"""Flat-array (CSR) max-flow kernel.

The object-based solvers in this package spend nearly all of their time in
the Python interpreter: one attribute lookup and one list index per arc
scan.  This module solves max-flow on a *flat* residual — contiguous NumPy
arrays built once per solve: ``arc_tail`` / ``arc_head`` (int64) and
``residual`` (float64) keep the arc-pair layout of
:class:`~repro.flows.base.ResidualNetwork` (edge ``k`` owns forward arc
``2k`` and reverse arc ``2k + 1``, the partner of ``arc`` is ``arc ^ 1``).
:meth:`FlatResidual.max_flow` runs one of two cores, chosen per solve by
:func:`pick_core` with no option to override it:

* the **compiled core** (:meth:`FlatResidual.compiled_max_flow`) lowers the
  residual to one matrix entry per ``(tail, head)`` pair and runs
  :func:`scipy.sparse.csgraph.maximum_flow` (a compiled Dinic, integer
  capacities only) in *rounds*.  Each round scales every pair by a power of
  two so its largest entry is below ``2**30`` (``c(i, j) + c(j, i)`` then
  stays in scipy's int32 range), floors, solves and adds the flow back.
  A breadth-first search over the round's integer residual reads a cut
  whose real residual ``G`` bounds the flow still missing.  The solve
  stops once ``G`` is at most ``1e-13`` of the value and no cut arc keeps
  more than ``1e-12``, the residual
  :func:`~repro.flows.mincut.min_cut_from_flow` still counts as saturated.
  Otherwise it first *routes* the leftovers: each cut arc's residual goes
  from the source to the arc's tail along that search's BFS tree, across
  the arc, and from its head to the sink along a reverse BFS tree inside
  the sink side over pairs holding at least ``G``.  When every tree pair
  can carry its load, every cut arc ends at zero residual and the flow
  equals the cut.  When one cannot, nothing moves and the next round
  clamps every pair to ``2G``, so no clamped pair is ever saturated.
  Integral capacities floor exactly and take one round; real ones take one
  round and the routing step, and two rounds in the rare case routing
  fails (32 of 7,700 seeded multigraphs at scales ``2**-13`` to ``2**30``);
* the **lockstep core** (:meth:`FlatResidual.lockstep_max_flow`), a
  two-phase lockstep preflow-push: exact distance labels come from one
  compiled reverse BFS (:func:`scipy.sparse.csgraph.dijkstra` with unit
  weights) over the CSR adjacency ``indptr`` / ``arcs_by_tail``, and every
  sweep discharges **all** active vertices at once with a segmented
  prefix-sum fill.  Phase 1 drives excess towards the sink (gap heuristic,
  periodic exact relabels); phase 2 returns the stranded excess.
  Uncapacitated arcs keep their ``INFINITY`` residual, as ``inf - x ==
  inf`` matches the reference's explicit skip in
  :meth:`ResidualNetwork.push`.

Both cores augment whatever residual they are handed, so warm starts
(:meth:`KernelDinic.augment_residual`) run on either, and both give the
reference flow values to 1e-9 relative (``tests/test_kernel_differential.py``).
The deadline is checked before each compiled round, before the routing
step and before each lockstep sweep.  A compiled round cannot be
interrupted, so a solve may overrun its budget by one round: about
9–21 ms on the 6,324-edge serving grids and about 50 ms on a 12k-edge
grid.

:class:`KernelDinic` registers as ``"kernel"`` in
:mod:`repro.flows.registry`, whose ``DEFAULT_EXACT_ALGORITHM`` names it as
the engine of every cold exact solve that names no algorithm.  ``"dinic"``
always means the pure-Python reference, so a failover chain that falls
back from ``"kernel"`` to ``"dinic"`` runs a different engine.
"""

from __future__ import annotations

import math
import time
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra, maximum_flow

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

__all__ = ["FlatResidual", "KernelDinic", "pick_core"]

#: Scaled pair capacities of a compiled round stay below ``2**_PAIR_BITS``.
_PAIR_BITS = 30
#: A compiled solve stops once its cut's residual is at most this share of
#: its value, and no cut arc keeps more than ``_GAP_ATOL`` (see the notes).
_GAP_RTOL = 1e-13
_GAP_ATOL = 1e-12
#: The gap shrinks by about ``2**30 / cut arcs`` a round; real inputs stop
#: after one or two, so this many means a fault.
_MAX_ROUNDS = 64
#: :func:`pick_core`'s crossover: edge count and shallow/thin depth bound.
_COMPILED_EDGES = 60_000
_SHALLOW = 8


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
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.source = int(source)
        self.sink = int(sink)
        self.arc_tail = arc_tail
        self.arc_head = arc_head
        # float64 unconditionally: int or mixed int/float capacity inputs
        # must not truncate (the dtype-promotion guard of the fuzz suite).
        self.residual = np.asarray(residual, dtype=np.float64)
        #: Whether every residual is finite (no uncapacitated arc).
        self.finite = bool(np.isfinite(self.residual).all())
        finite = self.residual if self.finite else self.residual[np.isfinite(self.residual)]
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
        #: The core the last :meth:`max_flow` ran (see :func:`pick_core`).
        self.core: Optional[str] = None
        #: Whether the last compiled solve finished by routing a round's
        #: leftovers.
        self.routed = False
        #: The reversed graph of :meth:`_reverse_bfs`, built on first use.
        self._reversed = None

    @cached_property
    def arcs_by_tail(self) -> np.ndarray:
        """Arc ids grouped by tail vertex, in arc order within a group."""
        return np.argsort(self.arc_tail, kind="stable").astype(np.int64)

    @cached_property
    def _pairs(self) -> "_Pairs":
        """The compiled core's pair matrix layout (arcs never change)."""
        return _Pairs(self)

    @cached_property
    def indptr(self) -> np.ndarray:
        """Start of each vertex's segment of :attr:`arcs_by_tail`."""
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        counts = np.bincount(self.arc_tail, minlength=self.num_vertices)
        np.cumsum(counts, out=indptr[1:])
        return indptr

    # ------------------------------------------------------------------
    # Construction / adapter boundary
    # ------------------------------------------------------------------

    @classmethod
    def from_network(cls, network: FlowNetwork) -> "FlatResidual":
        """Flat residual of ``network`` (forward arcs at capacity).

        Lowered from the network's cached array view
        (:meth:`~repro.graph.network.FlowNetwork.flat`), with no Python
        pass over its edges: edge ``k`` owns arcs ``2k`` and ``2k + 1``.
        """
        view = network.flat()
        arc_tail = np.empty(2 * view.tail.shape[0], dtype=np.int64)
        arc_tail[0::2], arc_tail[1::2] = view.tail, view.head
        arc_head = np.empty_like(arc_tail)
        arc_head[0::2], arc_head[1::2] = view.head, view.tail
        residual = np.zeros(arc_tail.shape[0], dtype=np.float64)
        residual[0::2] = view.capacity
        return cls(network.num_vertices, view.source, view.sink, arc_tail, arc_head, residual)

    @classmethod
    def from_residual(cls, residual: ResidualNetwork) -> "FlatResidual":
        """Export an object residual (possibly carrying flow) to flat arrays.

        The conversion is three C-level bulk copies, with no per-arc Python
        loop.  An object residual appends each arc to its tail's adjacency
        in arc order, so :attr:`arcs_by_tail`, built on first use, is its
        adjacency order: the flat arrays are a faithful snapshot of the
        warm residual state.
        """
        arcs = len(residual.arc_to)
        return cls(
            residual.num_vertices,
            residual.source,
            residual.sink,
            np.fromiter(residual.arc_from, dtype=np.int64, count=arcs),
            np.fromiter(residual.arc_to, dtype=np.int64, count=arcs),
            np.fromiter(residual.residual, dtype=np.float64, count=arcs),
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
    # Solve: one of two cores
    # ------------------------------------------------------------------

    def max_flow(self) -> int:
        """Drive the residual to a maximum flow with the core :func:`pick_core` chooses.

        Records the core in :attr:`core` and returns its compiled rounds or
        lockstep sweeps, the ``iterations`` figure of :class:`KernelDinic`.
        """
        self.core = pick_core(self)
        if self.source == self.sink:
            return 0
        if self.core == "compiled":
            return self.compiled_max_flow()
        return self.lockstep_max_flow()

    # ------------------------------------------------------------------
    # Compiled core: scaled integer rounds of scipy's Dinic
    # ------------------------------------------------------------------

    def compiled_max_flow(self) -> int:
        """Augment to a maximum flow in scaled integer rounds; returns the rounds.

        See the module notes; needs every residual finite.  Each round
        fires :func:`~repro.obs.probes.kernel_sweep`.  The ambient deadline
        is checked before round 1 and before each routing step, which the
        next round follows when routing fails, so an expired budget raises
        before round 1 and a solve overruns its budget by at most one
        routing step and one round.  :attr:`routed` records whether
        routing completed the solve.
        """
        if not self.finite:
            raise AlgorithmError("the compiled kernel core needs finite residuals")
        self.routed = False
        pairs = self._pairs
        residual = self.residual
        gap = math.inf
        value = 0.0
        rounds = 0
        tree = None
        while rounds < _MAX_ROUNDS:
            check_deadline("kernel compiled round")
            avail = residual[pairs.arcs]
            total = pairs.sum(avail)
            if tree is not None:
                moved = pairs.route(total, tree, self.sink)
                if moved is not None:
                    self._push_pairs(moved, avail, total)
                    self.routed = True
                    return rounds
            probes.kernel_sweep()
            rounds += 1
            # Twice the gap: this round's flow is at most the gap, so a
            # clamped pair is never saturated and never lands in its cut.
            capped = np.minimum(total, 2.0 * gap)
            top = float(capped.max(initial=0.0))
            if top <= 0.0:
                return rounds
            scale = math.ldexp(1.0, _PAIR_BITS - math.frexp(top)[1])
            # Non-negative, so the cast floors; below 2**30 by the scale.
            units = (capped * scale).astype(np.int32)
            solved = maximum_flow(pairs.matrix(units), self.source, self.sink)
            flow = solved.flow.data
            self._push_pairs(np.maximum(flow, 0) / scale, avail, total)
            value += solved.flow_value / scale
            tree = pairs.search(units > flow, self.source)
            side = np.isfinite(tree[0])
            left = residual[side[self.arc_tail] & ~side[self.arc_head]]
            gap = float(left.sum())
            if gap <= _GAP_RTOL * value and left.max(initial=0.0) <= _GAP_ATOL:
                return rounds
        raise AlgorithmError(
            f"compiled kernel left a gap of {gap!r} after {rounds} rounds "
            f"({self.num_vertices} vertices)"
        )

    def _push_pairs(self, moved: np.ndarray, avail: np.ndarray, total: np.ndarray) -> None:
        """Move ``moved`` along each pair, split over its arcs (:meth:`_Pairs.split`)."""
        arcs = self._pairs.arcs
        push = self._pairs.split(moved, avail, total)
        self.residual[arcs] -= push
        self.residual[arcs ^ 1] += push
        self.counter.pushes += int(np.count_nonzero(push))

    # ------------------------------------------------------------------
    # Lockstep core: two-phase lockstep preflow-push
    # ------------------------------------------------------------------

    #: Phase-1 sweeps between exact distance relabels.  One relabel costs
    #: about 2, 4 and 8 sweeps at 272, 6,324 and 27,552 edges; a shorter
    #: interval runs fewer sweeps but pays more relabels, and no interval
    #: among 12, 16 and 32 was faster than 24 at all three sizes.
    RELABEL_EVERY = 24
    #: Phase 2 usually drains in few sweeps; cheap frequent relabels keep
    #: the return cascade on exact distance-to-source labels.
    RELABEL_EVERY_RETURN = 8

    def lockstep_max_flow(self) -> int:
        """Drive the residual to a maximum flow; returns the sweep count.

        Two-phase preflow-push in lockstep sweeps.  Phase 1 saturates the
        source arcs and discharges all active vertices below height ``V``
        simultaneously each sweep until the sink inflow is maximal; phase 2
        re-labels everything by distance to the source and returns the
        stranded excess.  A sink the first exact relabel finds unreachable
        leaves the residual untouched, after no sweep.
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

        def relabel_towards_sink() -> bool:
            """Exact labels; whether the source still reaches the sink."""
            dist = self._reverse_bfs(sink)
            reaches = bool(dist[source] <= num_vertices)
            np.minimum(dist, num_vertices + 1, out=dist)
            dist[source] = num_vertices
            np.maximum(height, dist, out=height)
            self.counter.global_relabels += 1
            return reaches

        def relabel_towards_source() -> None:
            dist = self._reverse_bfs(source)
            reachable = dist <= num_vertices
            fresh = np.where(reachable, num_vertices + dist, 2 * num_vertices)
            fresh[source] = num_vertices
            fresh[sink] = height[sink]
            np.maximum(height, fresh, out=height)
            self.counter.global_relabels += 1

        # Initial exact labels (flooding a component that cannot reach the
        # sink would only leave round-off behind), then saturate every
        # usable source arc (INFINITY arcs push the finite flow_cap
        # surrogate, like the reference push-relabel's total-capacity
        # stand-in).
        if not relabel_towards_sink():
            return 0
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


def _tree_loads(
    hops: np.ndarray, parent: np.ndarray, amount: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The loads on a BFS tree's arcs that deliver ``amount`` to each vertex.

    Returns the vertices whose arc from ``parent`` carries a load, and the
    loads: each one's subtree total of ``amount``, summed a level at a time.
    """
    load = amount.copy()
    below = np.flatnonzero(parent >= 0)
    below = below[np.argsort(-hops[below], kind="stable")]
    for level in np.split(below, np.flatnonzero(np.diff(hops[below])) + 1):
        np.add.at(load, parent[level], load[level])
    ends = below[load[below] > 0.0]
    return ends, load[ends]


def pick_core(flat: FlatResidual) -> str:
    """The core :meth:`FlatResidual.max_flow` runs: ``"compiled"`` or ``"lockstep"``.

    A residual with an uncapacitated arc runs the lockstep core: the
    compiled one has no finite surrogate for it.  A finite one runs the
    compiled core when it is integral with a total below ``2**30`` (one
    exact round), has at most 60,000 edges, or has an s-t depth (hops over
    arcs with residual, one compiled search) of at most 8 or at least a
    vertex count over 8.  The rest — large, real-valued, deep *and* wide,
    like a square grid — run the lockstep core: there Dinic's phase count
    grows with the side of the grid.  A real square grid takes one routed
    round; 72x72 (15,480 edges) ran 91 ms compiled against 136 ms
    lockstep, 128x128 (49,024) 448 against 425 ms and 160x160 (76,640)
    827 against 769 ms, each within the other core's quartiles from
    128x128 up.  ``tools/perf_gate.py --suite kernel`` records the
    crossover sweep.
    """
    if not flat.finite:
        return "lockstep"
    residual = flat.residual
    if flat.flow_cap <= 2.0**_PAIR_BITS and bool(
        (residual == np.floor(residual)).all()
    ):
        return "compiled"
    if residual.size // 2 <= _COMPILED_EDGES:
        return "compiled"
    pairs = flat._pairs
    depth = pairs.search(pairs.sum(residual[pairs.arcs]) > 0.0, flat.source)[0][flat.sink]
    deep_and_wide = _SHALLOW < depth < flat.num_vertices / _SHALLOW
    return "lockstep" if deep_and_wide else "compiled"


class _Pairs:
    """A flat residual lowered to one matrix entry per ``(tail, head)`` pair.

    Arcs sorted by pair; ``first`` is each pair's first arc.  An arc's partner lies in the opposite pair, so the matrix holds
    ``(j, i)`` with every ``(i, j)``, as scipy's solver builds it, and its
    flow matrix comes back entry for entry in this order.
    """

    def __init__(self, flat: FlatResidual) -> None:
        size = flat.num_vertices
        key = flat.arc_tail * size + flat.arc_head
        self.arcs = np.argsort(key)
        key = key[self.arcs]
        self.first = np.flatnonzero(np.diff(key, prepend=-1))
        #: Each pair's ``tail * size + head``, ascending.
        self.keys = key[self.first]
        self.rows, cols = np.divmod(self.keys, size)
        self.cols = cols.astype(np.int32)
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows, minlength=size), out=self.indptr[1:])
        self.shape = (size, size)
        self.count = np.diff(np.append(self.first, self.arcs.size))
        #: Whether every pair has one arc (no parallel arcs).
        self.single = self.first.size == self.arcs.size

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-pair sums of per-arc ``values`` (given in pair order)."""
        return values if self.single else np.add.reduceat(values, self.first)

    def matrix(self, data: np.ndarray) -> csr_array:
        """The pair matrix with one ``data`` entry per pair."""
        return csr_array((data, self.cols, self.indptr), shape=self.shape)

    def split(self, moved: np.ndarray, avail: np.ndarray, total: np.ndarray) -> np.ndarray:
        """Per-arc pushes carrying ``moved`` per pair, greedily in arc order.

        ``avail`` are the arcs' residuals, ``total`` their pair sums.  A pair
        moved to within four ulp of ``total`` gives each arc exactly its
        residual: a greedy fill of a rounded sum would leave about an ulp,
        past the 1e-12 slack of a cut check on large capacities.
        """
        push = np.zeros_like(avail)
        pairs = np.flatnonzero(moved > 0.0)
        moved, total = moved[pairs], total[pairs]
        # A full pair's arcs each take their whole residual.
        left = np.where(moved >= total - 4.0 * np.spacing(total), np.inf, moved)
        if self.single:
            push[pairs] = np.minimum(left, avail[pairs])
            return push
        first, count = self.first[pairs], self.count[pairs]
        for rank in range(int(count.max(initial=0))):
            live = np.flatnonzero(count > rank)
            positions = first[live] + rank
            take = np.minimum(left[live], avail[positions])
            push[positions] = take
            left[live] -= take
        return push

    def search(self, usable: np.ndarray, root: int) -> Tuple[np.ndarray, np.ndarray]:
        """Hops from ``root`` over the pairs where ``usable`` holds (``inf``
        where unreached), and each reached vertex's predecessor: a BFS tree."""
        usable = self.matrix(np.where(usable, 1.0, np.inf))
        return dijkstra(
            usable, indices=root, limit=self.shape[0], return_predecessors=True
        )

    @cached_property
    def transposed(self) -> np.ndarray:
        """For each pair ``(i, j)``, the index of ``(j, i)``.

        Every pair has its opposite, so the transposed matrix has this
        matrix's structure with its data read through this permutation.
        """
        return self.index(self.cols, self.rows)

    def index(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """The index of each existing pair ``(tails[k], heads[k])``."""
        return np.searchsorted(self.keys, tails.astype(np.int64) * self.shape[0] + heads)

    def route(
        self, total: np.ndarray, tree: Tuple[np.ndarray, np.ndarray], sink: int
    ) -> Optional[np.ndarray]:
        """Per-pair moves that carry every cut pair's residual to the sink, or ``None``.

        ``total`` holds each pair's real residual and ``tree`` is the search
        that found the cut's source side.  A cut pair's residual travels
        from the source to its tail along ``tree``, across the pair, and
        from its head to ``sink`` along a reverse BFS tree inside the sink
        side over pairs with at least the cut's whole residual.  The moves
        use each pair in one direction only; ``None`` when some head misses
        that tree or some tree pair cannot carry its load, and nothing has
        been moved.
        """
        hops, parent = tree
        side = np.isfinite(hops)
        moved = np.where(side[self.rows] & ~side[self.cols], total, 0.0)
        size = self.shape[0]
        demand = np.bincount(self.rows, weights=moved, minlength=size)
        supply = np.bincount(self.cols, weights=moved, minlength=size)
        wide = ~side[self.rows] & ~side[self.cols] & (total >= moved.sum())
        back, child = self.search(wide[self.transposed], sink)
        if supply[np.isinf(back)].any():
            return None
        ends, load = _tree_loads(hops, parent, demand)
        moved[self.index(parent[ends], ends)] = load
        ends, load = _tree_loads(back, child, supply)
        moved[self.index(ends, child[ends])] = load
        return moved if bool((moved <= total).all()) else None


class KernelDinic(FlowAlgorithm):
    """The flat-array kernel, registered as ``"kernel"``.

    Behaviourally a drop-in for :class:`~repro.flows.dinic.Dinic`: the same
    arc-pair residual semantics, the same warm-start contract via
    :meth:`augment_residual`, the same exact flow values.  The engine is
    :meth:`FlatResidual.max_flow`: scipy's compiled Dinic in scaled integer
    rounds, or the two-phase lockstep preflow for uncapacitated and for
    deep, large real-valued networks (:func:`pick_core`).  ``iterations``
    therefore counts compiled rounds or discharge sweeps, not Dinic phases.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.flows.base import INFINITY
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 0.1)
    >>> _ = g.add_edge("a", "t", 0.3)
    >>> _ = g.add_edge("s", "t", 2)
    >>> result = KernelDinic().solve(g)  # real capacities: one round, then routing
    >>> result.flow_value, result.iterations
    (2.1, 1)
    >>> _ = g.add_edge("s", "t", INFINITY)
    >>> flat = FlatResidual.from_network(g)
    >>> pick_core(flat)  # no finite surrogate in the compiled core
    'lockstep'
    """

    name = "kernel"

    def solve(self, network: FlowNetwork, validate: bool = False) -> MaxFlowResult:
        """Solve on flat arrays end to end (no object residual is built).

        The ambient span gets ``kernel_core``, ``kernel_rounds`` and
        ``kernel_routed`` (compiled) or ``kernel_sweeps`` (lockstep),
        ``kernel_pushes`` and ``kernel_relabels``.
        """
        start = time.perf_counter()
        flat = FlatResidual.from_network(network)
        steps = flat.max_flow()
        counter = flat.counter
        steps_of = (
            {"kernel_rounds": steps, "kernel_routed": flat.routed}
            if flat.core == "compiled"
            else {"kernel_sweeps": steps}
        )
        annotate_span(
            kernel_core=flat.core,
            kernel_pushes=counter.pushes,
            kernel_relabels=counter.relabels,
            **steps_of,
        )
        edge_flows = flat.edge_flows()
        elapsed = time.perf_counter() - start
        result = MaxFlowResult(
            flow_value=network.flow_value(edge_flows),
            edge_flows=edge_flows,
            algorithm=self.name,
            operations=counter,
            wall_time_s=elapsed,
            iterations=steps,
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
        semantics as :meth:`Dinic.augment_residual`.  Returns the rounds or
        sweeps run.
        """
        flat = FlatResidual.from_residual(residual)
        phases = flat.max_flow()
        flat.store_into(residual)
        residual.counter = residual.counter.merged_with(flat.counter)
        return phases
