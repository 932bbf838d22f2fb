"""Flat-array (CSR) max-flow kernel.

The object-based solvers in this package spend nearly all of their time in
the Python interpreter: one attribute lookup and one list index per arc
scan.  This module solves max-flow on a *flat* residual — contiguous NumPy
arrays built once per solve: ``arc_tail`` / ``arc_head`` (int64) and
``residual`` (float64) keep the arc-pair layout of
:class:`~repro.flows.base.ResidualNetwork` (edge ``k`` owns forward arc
``2k`` and reverse arc ``2k + 1``, the partner of ``arc`` is ``arc ^ 1``).

:meth:`FlatResidual.max_flow` lowers the residual to one matrix entry per
``(tail, head)`` pair and runs :func:`scipy.sparse.csgraph.maximum_flow`
(a compiled Dinic, integer capacities only) in *rounds*.  Each round
scales every pair by a power of two so its largest entry is below
``2**30`` (``c(i, j) + c(j, i)`` then stays in scipy's int32 range),
floors, solves and adds the flow back.  A breadth-first search over the
round's integer residual reads a cut whose real residual ``G`` bounds the
flow still missing.  The solve stops once ``G`` is at most ``1e-13`` of
the value and no cut arc keeps more than ``1e-12``, the residual
:func:`~repro.flows.mincut.min_cut_from_flow` still counts as saturated.
Otherwise it first *routes* the leftovers: each cut arc's residual goes
from the source to the arc's tail along that search's BFS tree, across the
arc, and from its head to the sink along a reverse BFS tree inside the
sink side over pairs holding at least ``G``.  When every tree pair can
carry its load, every cut arc ends at zero residual and the flow equals
the cut.  When one cannot, nothing moves and the next round clamps every
pair to ``2G``, so no clamped pair is ever saturated.  Integral capacities
floor exactly and take one round; real ones take one round and the
routing step, and two rounds in the rare case routing fails (32 of 7,700
seeded multigraphs at scales ``2**-13`` to ``2**30``).

An uncapacitated pair enters every round at :attr:`FlatResidual.flow_cap`,
the finite residual total plus one.  When every source-sink path has a
finite edge, no flow can use that much, so the pair is never saturated,
never lands in a cut, and its arcs keep their ``INFINITY`` residual
(``inf - x == inf``, the reference's explicit skip in
:meth:`ResidualNetwork.push`).  A network whose source reaches the sink
over uncapacitated edges alone has no maximum flow;
:meth:`KernelDinic.solve` rejects it first
(:func:`~repro.flows.base.check_bounded`).

The rounds augment whatever residual they are handed, so warm starts run
through :meth:`KernelDinic.augment_residual`, and they give the reference
flow values to 1e-9 relative (``tests/test_kernel_differential.py``).  The
deadline is checked before each round and before the routing step.  A
round cannot be interrupted, so a solve may overrun its budget by one
round: about 9–21 ms on the 6,324-edge serving grids and about 50 ms on a
12k-edge grid.

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
    check_bounded,
    validate_max_flow,
)

__all__ = ["FlatResidual", "KernelDinic"]

#: Scaled pair capacities of a round stay below ``2**_PAIR_BITS``.
_PAIR_BITS = 30
#: A solve stops once its cut's residual is at most this share of its
#: value, and no cut arc keeps more than ``_GAP_ATOL`` (see the notes).
_GAP_RTOL = 1e-13
_GAP_ATOL = 1e-12
#: The gap shrinks by about ``2**30 / cut arcs`` a round; real inputs stop
#: after one or two, so this many means a fault.
_MAX_ROUNDS = 64


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
        #: What an uncapacitated pair enters a round with: the finite
        #: residual total plus one, more than any bounded flow can use.
        self.flow_cap = float(self.residual[np.isfinite(self.residual)].sum()) + 1.0
        self.counter = OperationCounter()
        #: Whether the last :meth:`max_flow` finished by routing a round's
        #: leftovers.
        self.routed = False

    @cached_property
    def _pairs(self) -> "_Pairs":
        """The pair matrix layout of the rounds (arcs never change)."""
        return _Pairs(self)

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
        loop; the flat arrays are a faithful snapshot of the warm residual
        state, appended arc pairs included.
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
    # Solve: scaled integer rounds of scipy's Dinic
    # ------------------------------------------------------------------

    def max_flow(self) -> int:
        """Augment to a maximum flow in scaled integer rounds; returns the rounds.

        See the module notes; the rounds are the ``iterations`` figure of
        :class:`KernelDinic`.  Each round fires
        :func:`~repro.obs.probes.kernel_sweep`.  The ambient deadline is
        checked before round 1 and before each routing step, which the
        next round follows when routing fails, so an expired budget raises
        before round 1 and a solve overruns its budget by at most one
        routing step and one round.  :attr:`routed` records whether
        routing completed the solve.
        """
        self.routed = False
        if self.source == self.sink:
            return 0
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
            # flow_cap is above every finite pair total of round 1, so
            # there it clamps uncapacitated pairs alone.
            capped = np.minimum(total, min(2.0 * gap, self.flow_cap))
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
    :meth:`FlatResidual.max_flow`, scipy's compiled Dinic in scaled integer
    rounds, so ``iterations`` counts rounds, not Dinic phases.

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
    >>> h = FlowNetwork()
    >>> _ = h.add_edge("s", "a", 3.0)
    >>> _ = h.add_edge("a", "b", INFINITY)  # enters each round at flow_cap
    >>> _ = h.add_edge("b", "t", 1.75)
    >>> _ = h.add_edge("s", "t", 2)
    >>> KernelDinic().solve(h).flow_value
    3.75
    >>> _ = h.add_edge("s", "a", INFINITY)
    >>> _ = h.add_edge("b", "t", INFINITY)  # s -> a -> b -> t, uncapacitated
    >>> KernelDinic().solve(h)
    Traceback (most recent call last):
    ...
    repro.errors.InvalidGraphError: the source reaches the sink over uncapacitated edges alone: the max flow is unbounded
    """

    name = "kernel"

    def solve(self, network: FlowNetwork, validate: bool = False) -> MaxFlowResult:
        """Solve on flat arrays end to end (no object residual is built).

        Raises :class:`~repro.errors.InvalidGraphError` for an unbounded
        network (:func:`~repro.flows.base.check_bounded`).  The ambient span
        gets ``kernel_rounds``, ``kernel_routed`` and ``kernel_pushes``.
        """
        check_bounded(network)
        start = time.perf_counter()
        flat = FlatResidual.from_network(network)
        rounds = flat.max_flow()
        counter = flat.counter
        annotate_span(
            kernel_rounds=rounds, kernel_routed=flat.routed, kernel_pushes=counter.pushes
        )
        edge_flows = flat.edge_flows()
        elapsed = time.perf_counter() - start
        result = MaxFlowResult(
            flow_value=network.flow_value(edge_flows),
            edge_flows=edge_flows,
            algorithm=self.name,
            operations=counter,
            wall_time_s=elapsed,
            iterations=rounds,
        )
        if validate:
            validate_max_flow(network, result)
        return result

    def _run(self, network: FlowNetwork) -> Tuple[ResidualNetwork, int]:
        residual = ResidualNetwork(network)
        return residual, self.augment_residual(residual)

    def augment_residual(self, residual: ResidualNetwork) -> int:
        """Warm-start rounds on an object residual via the flat round-trip.

        Exports the residual (including any flow it already carries and any
        arc pairs appended by the incremental solver), augments on the flat
        arrays, and stores the final capacities back — the same resume
        semantics as :meth:`Dinic.augment_residual`.  Returns the rounds
        run.
        """
        flat = FlatResidual.from_residual(residual)
        rounds = flat.max_flow()
        flat.store_into(residual)
        residual.counter = residual.counter.merged_with(flat.counter)
        return rounds
