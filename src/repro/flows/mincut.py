"""Minimum s-t cut extraction (the dual of max-flow).

Given a maximum flow, the minimum cut is obtained from the set of vertices
reachable from the source in the residual network.  The paper's Section 6.3
studies the min-cut linear program directly; this module provides the exact
combinatorial reference used to validate both the classical algorithms (via
max-flow = min-cut duality) and the analog dual solver.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from ..graph.network import FlowNetwork
from .base import INFINITY, MaxFlowResult
from .registry import DEFAULT_EXACT_ALGORITHM, get_algorithm

__all__ = ["MinCutResult", "min_cut_from_flow", "min_cut"]

Vertex = Hashable


@dataclass(frozen=True)
class MinCutResult:
    """A minimum s-t cut.

    Attributes
    ----------
    cut_value:
        Total capacity of the edges crossing the cut from the source side to
        the sink side.  Equals the max-flow value by strong duality.
    source_side, sink_side:
        The two vertex sets of the partition.
    cut_edges:
        Indices of the edges crossing from the source side to the sink side.
    """

    cut_value: float
    source_side: FrozenSet[Vertex]
    sink_side: FrozenSet[Vertex]
    cut_edges: Tuple[int, ...]

    def indicator(self, network: FlowNetwork) -> Dict[Vertex, int]:
        """Return the 0/1 partition labels ``p_i`` of the min-cut LP (Fig. 12).

        Source-side vertices get ``1`` and sink-side vertices ``0`` so that
        ``p_s - p_t >= 1`` holds, matching the paper's formulation.
        """
        return {v: (1 if v in self.source_side else 0) for v in network.vertices()}


def min_cut_from_flow(network: FlowNetwork, result: MaxFlowResult) -> MinCutResult:
    """Extract a minimum cut from a *maximum* flow.

    The source side is the set of vertices reachable from ``s`` in the
    residual graph induced by ``result.edge_flows``.  If the supplied flow is
    not maximum the returned partition may not separate s from t; callers can
    detect that because the sink would then appear on the source side.

    Forward slack and reverse flow count as residual above
    ``max(1e-12, 4 * ulp(capacity))`` (1e-12 on ``INFINITY`` edges): an
    exact flow can leave ``capacity - flow`` a few ulp above zero, and from
    capacities of about 2^12 one ulp is above 1e-12.
    """
    residual_adjacency: Dict[Vertex, List[Tuple[Vertex, float]]] = {
        v: [] for v in network.vertices()
    }
    for edge in network.edges():
        flow = result.edge_flows.get(edge.index, 0.0)
        forward_slack = edge.capacity - flow
        tol = 1e-12
        if edge.capacity != INFINITY:
            tol = max(tol, 4 * math.ulp(edge.capacity))
        if forward_slack > tol:
            residual_adjacency[edge.tail].append((edge.head, forward_slack))
        if flow > tol:
            residual_adjacency[edge.head].append((edge.tail, flow))

    reachable = {network.source}
    queue = deque([network.source])
    while queue:
        vertex = queue.popleft()
        for head, _slack in residual_adjacency[vertex]:
            if head not in reachable:
                reachable.add(head)
                queue.append(head)

    source_side = frozenset(reachable)
    sink_side = frozenset(v for v in network.vertices() if v not in reachable)
    cut_edges = tuple(
        edge.index
        for edge in network.edges()
        if edge.tail in source_side and edge.head in sink_side
    )
    cut_value = sum(network.edge(i).capacity for i in cut_edges)
    return MinCutResult(
        cut_value=cut_value,
        source_side=source_side,
        sink_side=sink_side,
        cut_edges=cut_edges,
    )


def min_cut(network: FlowNetwork, flow_result: Optional[MaxFlowResult] = None) -> MinCutResult:
    """Compute a minimum s-t cut, solving max-flow first if needed.

    The implicit solve runs ``DEFAULT_EXACT_ALGORITHM``; pass
    ``flow_result`` to pin the solver.
    """
    if flow_result is None:
        flow_result = get_algorithm(DEFAULT_EXACT_ALGORITHM).solve(network)
    return min_cut_from_flow(network, flow_result)
