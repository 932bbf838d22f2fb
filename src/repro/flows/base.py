"""Shared infrastructure for the classical max-flow algorithms.

All algorithms operate on a :class:`ResidualNetwork`, an arc-based residual
graph built from a :class:`~repro.graph.network.FlowNetwork`.  Each original
edge contributes a forward arc (residual capacity = capacity) and a backward
arc (residual capacity = 0); pushing flow on one arc frees capacity on its
partner.  The residual network also counts elementary operations so that the
CPU cost model (Section 5.1 baseline) can translate algorithmic work into an
estimated execution time on a conventional processor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import AlgorithmError, InfeasibleFlowError
from ..graph.network import FlowNetwork

__all__ = [
    "Arc",
    "ResidualNetwork",
    "OperationCounter",
    "MaxFlowResult",
    "FlowAlgorithm",
    "validate_max_flow",
]

Vertex = Hashable
INFINITY = float("inf")


@dataclass
class OperationCounter:
    """Counts of elementary operations performed by an algorithm run.

    The counters deliberately track the operations a C implementation would
    perform on its residual-network data structure (arc scans, pushes,
    relabels, queue operations); the CPU cost model converts them to time.
    """

    arc_scans: int = 0
    pushes: int = 0
    relabels: int = 0
    augmentations: int = 0
    queue_operations: int = 0
    global_relabels: int = 0

    def total(self) -> int:
        """Total number of counted elementary operations."""
        return (
            self.arc_scans
            + self.pushes
            + self.relabels
            + self.augmentations
            + self.queue_operations
            + self.global_relabels
        )

    def merged_with(self, other: "OperationCounter") -> "OperationCounter":
        """Return the element-wise sum of two counters."""
        return OperationCounter(
            arc_scans=self.arc_scans + other.arc_scans,
            pushes=self.pushes + other.pushes,
            relabels=self.relabels + other.relabels,
            augmentations=self.augmentations + other.augmentations,
            queue_operations=self.queue_operations + other.queue_operations,
            global_relabels=self.global_relabels + other.global_relabels,
        )


class ResidualNetwork:
    """Arc-based residual graph with operation counting.

    Arcs are stored in pairs: arc ``2k`` is the forward arc of original edge
    ``k``'s residual capacity and arc ``2k + 1`` is its reverse.  Additional
    arc pairs may be appended (used by algorithms that add auxiliary edges).
    """

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        self.vertex_of: List[Vertex] = network.vertices()
        self.index_of: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertex_of)}
        self.source = self.index_of[network.source]
        self.sink = self.index_of[network.sink]
        self.num_vertices = len(self.vertex_of)

        self.arc_to: List[int] = []
        self.arc_from: List[int] = []
        self.residual: List[float] = []
        self.adjacency: List[List[int]] = [[] for _ in range(self.num_vertices)]
        self.edge_of_arc: List[Optional[int]] = []
        self.counter = OperationCounter()

        for edge in network.edges():
            tail = self.index_of[edge.tail]
            head = self.index_of[edge.head]
            self._add_arc_pair(tail, head, edge.capacity, edge.index)

    # ------------------------------------------------------------------

    def _add_arc_pair(
        self, tail: int, head: int, capacity: float, edge_index: Optional[int]
    ) -> int:
        forward = len(self.arc_to)
        self.arc_from.extend((tail, head))
        self.arc_to.extend((head, tail))
        self.residual.extend((capacity, 0.0))
        self.edge_of_arc.extend((edge_index, None))
        self.adjacency[tail].append(forward)
        self.adjacency[head].append(forward + 1)
        return forward

    @staticmethod
    def partner(arc: int) -> int:
        """Index of the reverse arc of ``arc``."""
        return arc ^ 1

    def ensure_vertex(self, vertex: Vertex) -> int:
        """Index of ``vertex``, appending it to the residual graph if new.

        Used by the incremental solver when an :class:`EdgeInsert` references
        a vertex the original network did not have.
        """
        index = self.index_of.get(vertex)
        if index is None:
            index = self.num_vertices
            self.index_of[vertex] = index
            self.vertex_of.append(vertex)
            self.adjacency.append([])
            self.num_vertices += 1
        return index

    def add_edge_arcs(self, tail: Vertex, head: Vertex, capacity: float,
                      edge_index: Optional[int] = None) -> int:
        """Append a forward/reverse arc pair for a newly inserted edge.

        Returns the forward arc index.  Note that after out-of-band arcs have
        been appended the ``arc == 2 * edge_index`` invariant no longer holds
        for later edges, so incremental callers must track their own
        edge-to-arc mapping instead of relying on :meth:`flow_on_edges`.
        """
        return self._add_arc_pair(
            self.ensure_vertex(tail), self.ensure_vertex(head), capacity, edge_index
        )

    def push(self, arc: int, amount: float) -> None:
        """Push ``amount`` units along ``arc`` (and pull them from its partner)."""
        if amount < 0:
            raise AlgorithmError("cannot push a negative amount")
        if self.residual[arc] != INFINITY:
            self.residual[arc] -= amount
        rev = self.partner(arc)
        if self.residual[rev] != INFINITY:
            self.residual[rev] += amount
        self.counter.pushes += 1

    def flow_on_edges(self) -> Dict[int, float]:
        """Recover per-original-edge flow from the residual capacities.

        The flow on edge ``k`` equals the residual capacity accumulated on
        its reverse arc ``2k + 1`` (for finite-capacity edges) or the pushed
        amount tracked the same way for uncapacitated edges.
        """
        flow: Dict[int, float] = {}
        for edge in self.network.edges():
            reverse_arc = 2 * edge.index + 1
            flow[edge.index] = self.residual[reverse_arc]
        return flow

    def flow_value(self) -> float:
        """Net flow out of the source implied by the residual capacities."""
        return self.network.flow_value(self.flow_on_edges())


@dataclass(frozen=True)
class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes
    ----------
    flow_value:
        The value ``|f|`` of the computed flow (net flow out of the source).
    edge_flows:
        Mapping from edge index to flow on that edge.
    algorithm:
        Human-readable name of the algorithm that produced the result.
    operations:
        Elementary-operation counters (empty counter for solvers that do not
        track them, e.g. the LP reference).
    wall_time_s:
        Wall-clock time spent inside the solver.
    iterations:
        Algorithm-specific iteration count (augmentations, phases, ...).
    """

    flow_value: float
    edge_flows: Dict[int, float]
    algorithm: str
    operations: OperationCounter = field(default_factory=OperationCounter)
    wall_time_s: float = 0.0
    iterations: int = 0

    def flow_by_edge(self, network: FlowNetwork) -> Dict[Tuple[Vertex, Vertex], float]:
        """Flow keyed by ``(tail, head)`` pairs (parallel edges are summed)."""
        keyed: Dict[Tuple[Vertex, Vertex], float] = {}
        for edge in network.edges():
            key = (edge.tail, edge.head)
            keyed[key] = keyed.get(key, 0.0) + self.edge_flows.get(edge.index, 0.0)
        return keyed


class FlowAlgorithm:
    """Base class for max-flow solvers.

    Subclasses implement :meth:`_run` returning a :class:`ResidualNetwork`
    with the final residual capacities; the base class handles timing,
    flow extraction and validation.
    """

    name = "abstract"

    def solve(self, network: FlowNetwork, validate: bool = False) -> MaxFlowResult:
        """Compute a maximum s-t flow on ``network``.

        Parameters
        ----------
        network:
            The flow network to solve.
        validate:
            When set, the returned flow is checked for feasibility (capacity
            and conservation constraints); an :class:`InfeasibleFlowError` is
            raised if the check fails.  Intended for tests and debugging.
        """
        start = time.perf_counter()
        residual, iterations = self._run(network)
        elapsed = time.perf_counter() - start
        edge_flows = residual.flow_on_edges()
        value = network.flow_value(edge_flows)
        result = MaxFlowResult(
            flow_value=value,
            edge_flows=edge_flows,
            algorithm=self.name,
            operations=residual.counter,
            wall_time_s=elapsed,
            iterations=iterations,
        )
        if validate:
            validate_max_flow(network, result)
        return result

    # -- to be provided by subclasses ---------------------------------------

    def _run(self, network: FlowNetwork) -> Tuple[ResidualNetwork, int]:
        raise NotImplementedError


def validate_max_flow(
    network: FlowNetwork,
    result: MaxFlowResult,
    capacity_tol: float = 1e-6,
    conservation_tol: float = 1e-6,
) -> None:
    """Raise :class:`InfeasibleFlowError` when ``result`` is not a feasible flow.

    Note that this validates *feasibility*, not optimality; optimality is
    asserted in tests by cross-checking independent algorithms and the
    max-flow/min-cut duality.

    Both tolerances are absolute floors: each check allows the larger of
    its floor and ``1e-9`` of ``max(1, |value|)``, as
    :func:`~repro.resilience.failover.certify_flow_result` does, since the
    round-off of a correct flow grows with its scale (one ulp of a 4e9
    flow is 4.8e-7).
    """
    relative = 1e-9 * max(1.0, abs(result.flow_value))
    problems = network.check_flow(
        result.edge_flows,
        max(capacity_tol, relative),
        max(conservation_tol, relative),
    )
    value = network.flow_value(result.edge_flows)
    if abs(value - result.flow_value) > max(capacity_tol, 1e-9 * max(1.0, abs(value))):
        problems.append(
            f"reported flow value {result.flow_value} does not match edge flows ({value})"
        )
    if problems:
        raise InfeasibleFlowError(
            f"{result.algorithm}: infeasible flow: " + "; ".join(problems)
        )
