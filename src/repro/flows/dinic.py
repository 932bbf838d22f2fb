"""Dinitz (Dinic) blocking-flow maximum-flow algorithm.

Each *phase* builds a BFS level graph of the residual network and then finds
a blocking flow in it with iterative DFS using the current-arc optimisation.
The number of phases is at most ``|V|``, giving an ``O(|V|^2 |E|)`` bound
(``O(E * sqrt(V))`` on unit-capacity networks), which makes it the strongest
classical augmenting-path baseline in this package.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from ..graph.network import FlowNetwork
from ..obs import probes
from ..resilience.policy import check_deadline
from .base import FlowAlgorithm, MaxFlowResult, ResidualNetwork, INFINITY

__all__ = ["Dinic", "dinic"]


class Dinic(FlowAlgorithm):
    """Blocking-flow max-flow solver (Dinitz's algorithm)."""

    name = "dinic"

    def _run(self, network: FlowNetwork) -> Tuple[ResidualNetwork, int]:
        residual = ResidualNetwork(network)
        return residual, self.augment_residual(residual)

    def augment_residual(self, residual: ResidualNetwork) -> int:
        """Run blocking-flow phases on an existing residual network.

        The residual may already carry flow (reverse-arc capacities), in
        which case the phases *resume* augmentation from that flow instead
        of starting cold — the warm-start primitive of the incremental
        solver (:class:`~repro.flows.incremental.IncrementalMaxFlow`).
        Returns the number of phases run.
        """
        phases = 0
        level = [0] * residual.num_vertices
        while self._build_levels(residual, level):
            check_deadline("dinic blocking-flow phase")
            probes.dinic_phase()
            phases += 1
            current_arc = [0] * residual.num_vertices
            while True:
                pushed = self._send_blocking_flow(
                    residual, residual.source, INFINITY, level, current_arc
                )
                if pushed <= 0:
                    break
                residual.counter.augmentations += 1
        return phases

    @staticmethod
    def _build_levels(residual: ResidualNetwork, level: List[int]) -> bool:
        """BFS level assignment; returns True when the sink is reachable.

        ``level`` is reset in place and takes the residual's vertex count.
        """
        level[:] = [-1] * residual.num_vertices
        level[residual.source] = 0
        arc_to, capacity = residual.arc_to, residual.residual
        queue = deque([residual.source])
        popped = scans = 0
        while queue:
            vertex = queue.popleft()
            popped += 1
            arcs = residual.adjacency[vertex]
            scans += len(arcs)  # the search scans every arc it reaches
            below = level[vertex] + 1
            for arc in arcs:
                head = arc_to[arc]
                if level[head] < 0 and capacity[arc] > 0:
                    level[head] = below
                    queue.append(head)
        residual.counter.queue_operations += popped
        residual.counter.arc_scans += scans
        return level[residual.sink] >= 0

    def _send_blocking_flow(
        self,
        residual: ResidualNetwork,
        vertex: int,
        limit: float,
        level: List[int],
        current_arc: List[int],
    ) -> float:
        """Iterative DFS pushing one augmenting path of the level graph."""
        if vertex == residual.sink:
            return limit
        # Explicit stack of (vertex, pushed-so-far limit) to avoid recursion
        # limits on deep graphs.
        path_arcs: List[int] = []
        path_vertices: List[int] = [vertex]
        while True:
            node = path_vertices[-1]
            if node == residual.sink:
                bottleneck = min(
                    [limit] + [residual.residual[a] for a in path_arcs]
                )
                for arc in path_arcs:
                    residual.push(arc, bottleneck)
                return bottleneck
            advanced = False
            while current_arc[node] < len(residual.adjacency[node]):
                arc = residual.adjacency[node][current_arc[node]]
                residual.counter.arc_scans += 1
                head = residual.arc_to[arc]
                if residual.residual[arc] > 0 and level[head] == level[node] + 1:
                    path_arcs.append(arc)
                    path_vertices.append(head)
                    advanced = True
                    break
                current_arc[node] += 1
            if not advanced:
                if node == vertex:
                    return 0.0
                # Dead end: retreat and disable the arc we came through.
                path_vertices.pop()
                dead_arc = path_arcs.pop()
                current_arc[residual.arc_from[dead_arc]] += 1


def dinic(network: FlowNetwork) -> MaxFlowResult:
    """Solve ``network`` with :class:`Dinic`."""
    return Dinic().solve(network)
