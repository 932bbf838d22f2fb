"""Incremental maximum-flow repair for dynamic networks.

A streaming workload edits a few edges and asks for the new max flow.  A cold
solver pays the full ``O(V^2 E)``-ish cost again; :class:`IncrementalMaxFlow`
instead keeps the residual network of the previous solution alive and pays
only for the delta:

* **capacity increase / edge insert** — the previous flow stays feasible, so
  augmentation simply *resumes* from it on the existing residual;
* **capacity decrease / edge removal** — the previous flow may overflow the
  edited edge.  The overflow is drained by residual-graph repair: clip the
  edge's flow to the new capacity (leaving an excess at its tail ``u`` and a
  deficit at its head ``v``), then (1) *reroute* as much of the overflow as
  possible along augmenting ``u -> v`` paths of the residual graph, and
  (2) *cancel* the remainder by pushing it back along reverse arcs ``u -> s``
  and ``t -> v`` — both guaranteed to succeed by flow decomposition, reducing
  the flow value by exactly the uncancellable amount.  A final warm
  augmentation pass restores maximality.

On a residual of 2,000 edges or more the warm augmentation is gated.  One
level BFS from the source over the maintained residual (``_search``, the
search of :meth:`Dinic._build_levels`) decides whether any augmenting
path is left; most pushes of a stream of small edits leave none (690 of
800 on the perfbench stream-edit grid), and then nothing more runs.  When
one is left, the residual makes one flat round trip through
:meth:`KernelDinic.augment_residual
<repro.flows.kernel.KernelDinic.augment_residual>` — scipy's compiled
Dinic in scaled integer rounds — instead of many pure-Python
blocking-flow phases.  The flat lowering costs ``O(E)``, but only a push
that must augment pays it, and it pays it once.  Smaller residuals augment
in blocking-flow phases, which finish there before the round trip's fixed
cost of about 1 ms would (``_KERNEL_EDGES``).

Most pushes skip even the gate's search.  The last level search that did
not reach the sink leaves a *witness*: the residual arcs leaving the
vertices it reached, a source side ``S`` (30 arcs on the stream-edit
grid), collected as the search scans them.  Every path from the source to
the sink leaves ``S`` by one of them, so when none has residual left after
a repair (the gate's own ``capacity > 0`` test, no tolerance) the sink is
unreachable and the push is done.  Only inserted edges add arcs or
vertices, so a batch with inserts, and every cold solve, drops the
witness.  Edge flows follow the same rule: the engine keeps one flow dict,
and a push that did not augment rewrites only the edges whose flow its
clips and repair paths moved before handing its result a copy.

The repair is exact: after every :meth:`~IncrementalMaxFlow.apply` the stored
flow is a maximum flow of the edited network (the equivalence tests assert
agreement with a from-scratch solve to 1e-9).  When a batch touches more
than ``cold_ratio`` of the edges, the warm path is unlikely to beat a fresh
solve, so the engine cuts over to a cold rebuild (the heuristic the
streaming benchmark sweeps).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional

from ..errors import AlgorithmError, ReproError, SolveTimeoutError
from ..graph.network import FlowNetwork
from ..graph.updates import MutableFlowNetwork, UpdateBatch, UpdateEvent
from ..obs import probes
from ..resilience.faults import fault_point
from ..resilience.policy import check_deadline
from .base import INFINITY, MaxFlowResult, OperationCounter, ResidualNetwork, validate_max_flow
from .dinic import Dinic
from .kernel import KernelDinic
from .registry import get_algorithm

__all__ = ["IncrementalMaxFlow"]

#: Absolute slack used when comparing repaired amounts against targets.
_REPAIR_TOL = 1e-9
#: Residuals with fewer edges than this augment warm in blocking-flow
#: phases, which there finish before the kernel's flat round trip would
#: (about 1 ms even on 50 edges).  Per push that had to augment, phases
#: vs kernel medians on 1–5% edit streams: 0.2 vs 1.2 ms at 192 edges,
#: 3.0 vs 4.0 ms on a 1,542-edge grid, 2.0 vs 2.1 ms at 2,004 edges, 10.8
#: vs 4.5 ms on a 2,776-edge grid, 31 vs 6.7 ms (max 170 vs 9) at 6,324.
_KERNEL_EDGES = 2_000


class IncrementalMaxFlow:
    """Maintain a maximum flow across batched edits of one network.

    Parameters
    ----------
    network:
        The network to track.  The instance is *shared*: the caller (usually
        a :class:`~repro.graph.updates.MutableFlowNetwork`) mutates it and
        hands the resulting :class:`~repro.graph.updates.UpdateBatch` to
        :meth:`apply`.  Alternatively pass a
        :class:`~repro.graph.updates.MutableFlowNetwork` directly and use
        :meth:`push`.
    algorithm:
        Algorithm (a :data:`repro.flows.registry.ALGORITHMS` name) used for
        *cold* solves — the initial one and ``cold_ratio`` cutovers.  Warm
        repairs run the same engine whatever is named: path repair on the
        maintained residual, then the augmentation of the module notes
        (gated and on the kernel from 2,000 edges).
    cold_ratio:
        Cutover heuristic: when one batch touches more than this fraction of
        the network's edges, rebuild from scratch instead of repairing.
    validate:
        Check feasibility of the flow after every apply (tests/debugging).

    Examples
    --------
    >>> from repro.graph import FlowNetwork
    >>> from repro.graph.updates import CapacityUpdate, MutableFlowNetwork
    >>> from repro.flows.incremental import IncrementalMaxFlow
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 3.0)
    >>> _ = g.add_edge("a", "t", 2.0)
    >>> dynamic = MutableFlowNetwork(g)
    >>> engine = IncrementalMaxFlow(dynamic, cold_ratio=1.0)
    >>> engine.result.flow_value
    2.0
    >>> engine.push([CapacityUpdate(1, 0.5)]).flow_value
    0.5
    >>> engine.warm_solves, engine.cold_solves
    (1, 1)
    """

    def __init__(
        self,
        network,
        algorithm: str = "dinic",
        cold_ratio: float = 0.25,
        validate: bool = False,
    ) -> None:
        if not 0.0 <= cold_ratio <= 1.0:
            raise AlgorithmError("cold_ratio must be within [0, 1]")
        get_algorithm(algorithm)  # fail fast on unknown names
        if isinstance(network, MutableFlowNetwork):
            self._mutable: Optional[MutableFlowNetwork] = network
            self.network: FlowNetwork = network.network
        elif isinstance(network, FlowNetwork):
            self._mutable = None
            self.network = network
        else:
            raise AlgorithmError(
                "network must be a FlowNetwork or MutableFlowNetwork, got "
                f"{type(network).__name__}"
            )
        self.algorithm = algorithm
        self.cold_ratio = cold_ratio
        self.validate = validate
        #: Arcs leaving the source side of the last level search that did
        #: not reach the sink; None until such a search ran on this residual.
        self._witness: Optional[List[int]] = None
        #: Per-edge flow as of the last result; results get copies of it.
        self._flows: Dict[int, float] = {}
        #: Edges whose flow this push's clips and repair paths moved.
        self._moved: List[int] = []
        self.cold_solves = 0
        self.warm_solves = 0
        #: Level searches warm pushes ran after their repair.
        self.level_searches = 0
        self.repair_failures = 0
        self.rerouted_flow = 0.0
        self.cancelled_flow = 0.0
        self._stale = False
        self._result = self._cold_solve()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def result(self) -> MaxFlowResult:
        """The current maximum flow (of the network's latest applied state)."""
        return self._result

    def push(self, events) -> MaxFlowResult:
        """Apply raw update events through the attached mutable network.

        Only available when the engine was constructed from a
        :class:`~repro.graph.updates.MutableFlowNetwork`; otherwise mutate
        the network externally and call :meth:`apply` with the batch.
        """
        if self._mutable is None:
            raise AlgorithmError(
                "push() needs a MutableFlowNetwork; use apply(batch) instead"
            )
        return self.apply(self._mutable.apply(events))

    def apply(self, batch: UpdateBatch) -> MaxFlowResult:
        """Repair the maximum flow after ``batch`` was applied to the network.

        Parameters
        ----------
        batch:
            The :class:`~repro.graph.updates.UpdateBatch` describing edits
            already applied to the shared network.

        Returns
        -------
        MaxFlowResult
            The repaired (or rebuilt) maximum flow; ``algorithm`` is
            ``"incremental-dinic"`` for warm repairs and the configured cold
            algorithm name for cold cutovers.
        """
        if self._stale:
            # A previous apply died mid-repair (deadline): the maintained
            # residual is unusable, so rebuild cold.  The network already
            # carries every applied batch, including this one.
            self._result = self._cold_solve()
            self._stale = False
            return self._result
        changed = batch.num_changed_edges
        if changed == 0:
            return self._result
        if changed > self.cold_ratio * max(1, self.network.num_edges):
            self._result = self._cold_solve()
            return self._result
        try:
            self._result = self._warm_apply(batch)
        except SolveTimeoutError:
            # The budget that killed the repair would kill a rebuild too;
            # mark the warm state unusable and let the next apply (or
            # refresh()) re-solve cold from the already-mutated network.
            self._stale = True
            raise
        except ReproError:
            # Warm repair failed (numerically degenerate residual, injected
            # fault, ...): degrade to a cold rebuild from the network, which
            # does not depend on any maintained warm state.
            self.repair_failures += 1
            self._result = self._cold_solve()
        return self._result

    def refresh(self) -> MaxFlowResult:
        """Force a cold re-solve of the network's current state."""
        self._result = self._cold_solve()
        self._stale = False
        return self._result

    # ------------------------------------------------------------------
    # Cold path
    # ------------------------------------------------------------------

    def _cold_solve(self) -> MaxFlowResult:
        start = time.perf_counter()
        before = OperationCounter()  # fresh residual, counters start at zero
        # Edge k owns arcs 2k and 2k + 1: inserted edges append their pair
        # in index order (_warm_apply), so the layout holds for the
        # residual's whole life.
        self._residual = ResidualNetwork(self.network)
        self._witness = None
        if self.algorithm in ("dinic", "kernel"):
            phases = get_algorithm(self.algorithm).augment_residual(self._residual)
        else:
            # Solve with the configured algorithm, then seed the maintained
            # residual from its flow so warm repairs can resume from it.
            result = get_algorithm(self.algorithm).solve(self.network)
            residual = self._residual
            for edge in self.network.edges():
                flow = result.edge_flows.get(edge.index, 0.0)
                arc = 2 * edge.index
                if residual.residual[arc] != INFINITY:
                    # max() guards against an LP-reference flow overshooting
                    # a capacity by round-off.
                    residual.residual[arc] = max(0.0, edge.capacity - flow)
                residual.residual[arc + 1] = flow
            phases = result.iterations
        self.cold_solves += 1
        probes.incremental_cold(self.algorithm)
        return self._build_result(self.algorithm, phases, start, before)

    # ------------------------------------------------------------------
    # Warm path
    # ------------------------------------------------------------------

    def _warm_apply(self, batch: UpdateBatch) -> MaxFlowResult:
        """Repair, then augment only if the witness and gate leave a path."""
        fault_point("warm-repair", self.algorithm)
        probes.incremental_repair(self.algorithm)
        start = time.perf_counter()
        before = self._counter_snapshot()
        residual = self._residual
        moved = self._moved
        moved.clear()

        if batch.inserted_edges:
            # New arcs (and maybe vertices) can leave the witness's side.
            self._witness = None
        for edge in batch.inserted_edges:
            residual.add_edge_arcs(edge.tail, edge.head, edge.capacity, edge.index)

        repairs: List = []
        for index, (_, new) in batch.capacity_changes.items():
            arc = 2 * index
            rev = arc + 1
            flow = residual.residual[rev]
            if new == INFINITY:
                residual.residual[arc] = INFINITY
                continue
            if flow <= new:
                residual.residual[arc] = new - flow
                continue
            # Overflow: clip the edge's flow and schedule a repair.
            overflow = flow - new
            residual.residual[arc] = 0.0
            residual.residual[rev] = new
            moved.append(index)
            edge = self.network.edge(index)
            repairs.append(
                (residual.index_of[edge.tail], residual.index_of[edge.head], overflow)
            )

        for tail, head, overflow in repairs:
            if not self._repair(tail, head, overflow):
                # Defensive: theory guarantees the repair succeeds, but a
                # numerically degenerate residual falls back to a rebuild.
                self.repair_failures += 1
                return self._cold_solve()

        phases = 0
        lowered = False
        if len(residual.arc_to) < 2 * _KERNEL_EDGES:
            phases = Dinic().augment_residual(residual)
            self.level_searches += phases + 1
        elif not self._witness_closed() and self._search():
            # An augmenting path survived the repair: augment in one flat
            # round trip on the kernel.  Its rounds may stop with up to
            # 1e-12 (_GAP_ATOL) left on a cut arc, which this search counts
            # as residual, so blocking-flow phases run on any path the
            # finishing search finds: after none of the 110 round trips of
            # the 800 perfbench stream-edit pushes, and after 45 of the 606
            # in the kernel differential's warm-engine streams.
            lowered = True
            phases = KernelDinic().augment_residual(residual)
            if self._search():
                finishing = Dinic().augment_residual(residual)
                self.level_searches += finishing + 1
                phases += finishing
        self.warm_solves += 1
        patch = not (phases or lowered or batch.inserted_edges)
        result = self._build_result(
            "incremental-dinic", phases, start, before, moved if patch else None
        )
        if self.validate:
            validate_max_flow(self.network, result)
        return result

    def _witness_closed(self) -> bool:
        """True when no witness arc has residual: the sink is unreachable."""
        if self._witness is None:
            return False
        capacity = self._residual.residual
        return not any(capacity[arc] > 0 for arc in self._witness)

    def _search(self) -> bool:
        """One level search from the source; True when it reaches the sink.

        The BFS of :meth:`Dinic._build_levels`, which also keeps every arc
        without residual that it scans towards an unreached vertex.  When
        the sink stays unreached, those whose head stays unreached too are
        the arcs leaving the source side: the next witness.  An older
        witness stays exact until arcs are added, so it is kept otherwise.
        """
        self.level_searches += 1
        residual = self._residual
        arc_to, capacity = residual.arc_to, residual.residual
        reached = [False] * residual.num_vertices
        reached[residual.source] = True
        queue = deque([residual.source])
        boundary: List[int] = []
        popped = scans = 0
        while queue:
            arcs = residual.adjacency[queue.popleft()]
            popped += 1
            scans += len(arcs)
            for arc in arcs:
                head = arc_to[arc]
                if not reached[head]:
                    if capacity[arc] > 0:
                        reached[head] = True
                        queue.append(head)
                    else:
                        boundary.append(arc)
        residual.counter.queue_operations += popped
        residual.counter.arc_scans += scans
        if reached[residual.sink]:
            return True
        self._witness = [arc for arc in boundary if not reached[arc_to[arc]]]
        return False

    def _repair(self, tail: int, head: int, overflow: float) -> bool:
        """Drain ``overflow`` units of excess at ``tail`` / deficit at ``head``.

        Returns False when the residual could not absorb the imbalance (never
        expected; triggers a cold rebuild).
        """
        residual = self._residual
        rerouted = 0.0
        if tail != head:
            rerouted = self._bounded_max_flow(tail, head, overflow)
            self.rerouted_flow += rerouted
        remaining = overflow - rerouted
        if remaining <= _REPAIR_TOL:
            return True
        # Cancellation: the unreroutable remainder came from the source and
        # went to the sink (flow decomposition), so the reverse arcs admit
        # exactly this much from tail back to s and from t back to head.
        self.cancelled_flow += remaining
        if tail != residual.source:
            pushed = self._bounded_max_flow(tail, residual.source, remaining)
            if pushed < remaining - _REPAIR_TOL:
                return False
        if head != residual.sink:
            pulled = self._bounded_max_flow(residual.sink, head, remaining)
            if pulled < remaining - _REPAIR_TOL:
                return False
        return True

    def _bounded_max_flow(self, source: int, target: int, limit: float) -> float:
        """Push up to ``limit`` units from ``source`` to ``target`` (BFS paths)."""
        residual = self._residual
        counter = residual.counter
        arc_to, capacity, tol = residual.arc_to, residual.residual, _REPAIR_TOL
        moved = self._moved
        pushed_total = 0.0
        unvisited = [-1] * residual.num_vertices
        parent_arc = unvisited[:]
        while limit - pushed_total > tol:
            check_deadline("incremental repair path search")
            parent_arc[:] = unvisited
            parent_arc[source] = -2
            queue = deque([source])
            found = False
            popped = scans = 0
            while queue and not found:
                vertex = queue.popleft()
                popped += 1
                for arc in residual.adjacency[vertex]:
                    scans += 1
                    head = arc_to[arc]
                    if parent_arc[head] == -1 and capacity[arc] > tol:
                        parent_arc[head] = arc
                        if head == target:
                            found = True
                            break
                        queue.append(head)
            counter.queue_operations += popped
            counter.arc_scans += scans
            if not found:
                break
            bottleneck = limit - pushed_total
            vertex = target
            while vertex != source:
                arc = parent_arc[vertex]
                bottleneck = min(bottleneck, capacity[arc])
                vertex = residual.arc_from[arc]
            vertex = target
            while vertex != source:
                arc = parent_arc[vertex]
                residual.push(arc, bottleneck)
                moved.append(arc >> 1)
                vertex = residual.arc_from[arc]
            counter.augmentations += 1
            pushed_total += bottleneck
        return pushed_total

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def edge_flows(self) -> Dict[int, float]:
        """Per-edge flow recovered from the maintained residual network.

        The flow on edge ``k`` is the residual of its reverse arc ``2k + 1``.
        """
        return dict(enumerate(self._residual.residual[1::2]))

    def _counter_snapshot(self) -> OperationCounter:
        counter = self._residual.counter if hasattr(self, "_residual") else OperationCounter()
        return OperationCounter(
            arc_scans=counter.arc_scans,
            pushes=counter.pushes,
            relabels=counter.relabels,
            augmentations=counter.augmentations,
            queue_operations=counter.queue_operations,
            global_relabels=counter.global_relabels,
        )

    def _build_result(
        self,
        algorithm: str,
        phases: int,
        start: float,
        before: OperationCounter,
        moved: Optional[List[int]] = None,
    ) -> MaxFlowResult:
        """The result, on a copy of the engine's flow dict.

        ``moved`` names the only edges whose flow changed since the last
        result; None re-reads every edge.
        """
        if moved is None:
            self._flows = self.edge_flows()
        else:
            flows, reverse = self._flows, self._residual.residual
            for index in moved:
                flows[index] = reverse[2 * index + 1]
        flows = self._flows.copy()
        after = self._residual.counter
        delta = OperationCounter(
            arc_scans=after.arc_scans - before.arc_scans,
            pushes=after.pushes - before.pushes,
            relabels=after.relabels - before.relabels,
            augmentations=after.augmentations - before.augmentations,
            queue_operations=after.queue_operations - before.queue_operations,
            global_relabels=after.global_relabels - before.global_relabels,
        )
        return MaxFlowResult(
            flow_value=self.network.flow_value(flows),
            edge_flows=flows,
            algorithm=algorithm,
            operations=delta,
            wall_time_s=time.perf_counter() - start,
            iterations=phases,
        )
