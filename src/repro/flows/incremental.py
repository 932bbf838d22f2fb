"""Incremental maximum-flow repair for dynamic networks.

A streaming workload edits a few edges and asks for the new max flow.  A cold
solver pays the full ``O(V^2 E)``-ish cost again; :class:`IncrementalMaxFlow`
instead keeps the residual network of the previous solution alive and pays
only for the delta:

* **capacity increase / edge insert** — the previous flow stays feasible, so
  augmentation simply *resumes* from it (warm-started Dinic blocking-flow
  phases on the existing residual);
* **capacity decrease / edge removal** — the previous flow may overflow the
  edited edge.  The overflow is drained by residual-graph repair: clip the
  edge's flow to the new capacity (leaving an excess at its tail ``u`` and a
  deficit at its head ``v``), then (1) *reroute* as much of the overflow as
  possible along augmenting ``u -> v`` paths of the residual graph, and
  (2) *cancel* the remainder by pushing it back along reverse arcs ``u -> s``
  and ``t -> v`` — both guaranteed to succeed by flow decomposition, reducing
  the flow value by exactly the uncancellable amount.  A final warm
  augmentation pass restores maximality.

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
from .base import INFINITY, MaxFlowResult, OperationCounter, ResidualNetwork
from .dinic import Dinic
from .kernel import KernelDinic
from .registry import get_algorithm

__all__ = ["IncrementalMaxFlow"]

#: Absolute slack used when comparing repaired amounts against targets.
_REPAIR_TOL = 1e-9


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
        repairs always run the Dinic machinery on the maintained residual
        (the flat-array kernel when ``"kernel"`` is named, the pure-Python
        engine otherwise).
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
        # Warm repairs resume on the maintained residual.  The flat-array
        # kernel round-trips that state, so explicit "kernel" streams
        # run it as the augmentation engine; the "dinic" default keeps the
        # pure-Python repair, whose per-push cost scales with the delta
        # rather than the kernel's O(E) flat-array setup (at streaming
        # delta sizes the setup would dominate the repair itself).
        self._dinic = KernelDinic() if algorithm == "kernel" else Dinic()
        self.cold_solves = 0
        self.warm_solves = 0
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
        self._residual = ResidualNetwork(self.network)
        self._arc_of_edge: Dict[int, int] = {
            edge.index: 2 * edge.index for edge in self.network.edges()
        }
        if self.algorithm in ("dinic", "kernel"):
            phases = self._dinic.augment_residual(self._residual)
        else:
            # Solve with the configured algorithm, then seed the maintained
            # residual from its flow so warm repairs can resume from it.
            result = get_algorithm(self.algorithm).solve(self.network)
            residual = self._residual
            for edge in self.network.edges():
                flow = result.edge_flows.get(edge.index, 0.0)
                arc = self._arc_of_edge[edge.index]
                if residual.residual[arc] != INFINITY:
                    # max() guards against an LP-reference flow overshooting
                    # a capacity by round-off.
                    residual.residual[arc] = max(0.0, edge.capacity - flow)
                residual.residual[residual.partner(arc)] = flow
            phases = result.iterations
        self.cold_solves += 1
        probes.incremental_cold(self.algorithm)
        return self._build_result(self.algorithm, phases, start, before)

    # ------------------------------------------------------------------
    # Warm path
    # ------------------------------------------------------------------

    def _warm_apply(self, batch: UpdateBatch) -> MaxFlowResult:
        fault_point("warm-repair", self.algorithm)
        probes.incremental_repair(self.algorithm)
        start = time.perf_counter()
        before = self._counter_snapshot()
        residual = self._residual

        for edge in batch.inserted_edges:
            arc = residual.add_edge_arcs(
                edge.tail, edge.head, edge.capacity, edge.index
            )
            self._arc_of_edge[edge.index] = arc

        repairs: List = []
        for index, (_, new) in batch.capacity_changes.items():
            if index not in self._arc_of_edge:
                # Edge inserted and re-weighted within the same batch.
                continue
            arc = self._arc_of_edge[index]
            rev = residual.partner(arc)
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
            edge = self.network.edge(index)
            repairs.append(
                (residual.index_of[edge.tail], residual.index_of[edge.head], overflow)
            )

        for tail, head, overflow in repairs:
            if not self._repair(tail, head, overflow):
                # Defensive: theory guarantees the repair succeeds, but a
                # numerically degenerate residual falls back to a rebuild.
                self._result = self._cold_solve()
                return self._result

        phases = self._dinic.augment_residual(residual)
        self.warm_solves += 1
        result = self._build_result("incremental-dinic", phases, start, before)
        if self.validate:
            from .base import validate_max_flow

            validate_max_flow(self.network, result)
        return result

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
        pushed_total = 0.0
        parent_arc: List[int] = [-1] * residual.num_vertices
        while limit - pushed_total > _REPAIR_TOL:
            check_deadline("incremental repair path search")
            for i in range(residual.num_vertices):
                parent_arc[i] = -1
            parent_arc[source] = -2
            queue = deque([source])
            found = False
            while queue and not found:
                vertex = queue.popleft()
                residual.counter.queue_operations += 1
                for arc in residual.adjacency[vertex]:
                    residual.counter.arc_scans += 1
                    head = residual.arc_to[arc]
                    if parent_arc[head] == -1 and residual.residual[arc] > _REPAIR_TOL:
                        parent_arc[head] = arc
                        if head == target:
                            found = True
                            break
                        queue.append(head)
            if not found:
                break
            bottleneck = limit - pushed_total
            vertex = target
            while vertex != source:
                arc = parent_arc[vertex]
                bottleneck = min(bottleneck, residual.residual[arc])
                vertex = residual.arc_from[arc]
            vertex = target
            while vertex != source:
                arc = parent_arc[vertex]
                residual.push(arc, bottleneck)
                vertex = residual.arc_from[arc]
            residual.counter.augmentations += 1
            pushed_total += bottleneck
        return pushed_total

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def edge_flows(self) -> Dict[int, float]:
        """Per-edge flow recovered from the maintained residual network."""
        residual = self._residual
        return {
            index: residual.residual[residual.partner(arc)]
            for index, arc in self._arc_of_edge.items()
        }

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
    ) -> MaxFlowResult:
        flows = self.edge_flows()
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
