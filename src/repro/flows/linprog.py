"""Linear-programming reference solver for max-flow.

The max-flow problem is the restricted linear program the paper specialises
its circuit for (Section 2.3, Equation 7):

    maximize   sum of flow on source-adjacent edges
    subject to flow conservation at every internal vertex
               0 <= f_e <= c_e

This module builds exactly that LP and solves it with
:func:`scipy.optimize.linprog` (HiGHS).  It serves as an independent
reference implementation used by the tests to validate the combinatorial
algorithms and the analog substrate, and it doubles as the software model of
the generic analog LP substrate of Vichik & Borrelli [42] that the paper's
circuits are derived from.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..errors import AlgorithmError
from ..graph.network import FlowNetwork
from .base import MaxFlowResult, OperationCounter

__all__ = ["LinearProgrammingSolver", "solve_lp_maxflow"]


class LinearProgrammingSolver:
    """Max-flow solver based on :func:`scipy.optimize.linprog`.

    Parameters
    ----------
    infinite_capacity:
        Value substituted for infinite edge capacities; defaults to the sum
        of all finite capacities plus one (a valid upper bound on any flow).
    method:
        scipy ``linprog`` method; HiGHS is both fast and accurate.
    """

    name = "lp-reference"

    def __init__(self, infinite_capacity: Optional[float] = None, method: str = "highs") -> None:
        self.infinite_capacity = infinite_capacity
        self.method = method

    def solve(self, network: FlowNetwork, validate: bool = False) -> MaxFlowResult:
        """Solve the max-flow LP for ``network``."""
        start = time.perf_counter()
        edges = network.edges()
        num_edges = len(edges)
        if num_edges == 0:
            return MaxFlowResult(0.0, {}, self.name, OperationCounter(), 0.0, 0)

        cap_bound = self.infinite_capacity
        if cap_bound is None:
            cap_bound = network.total_capacity() + 1.0

        # Objective: maximize net flow out of the source == minimize -sum.
        objective = np.zeros(num_edges)
        for edge in network.out_edges(network.source):
            objective[edge.index] -= 1.0
        for edge in network.in_edges(network.source):
            objective[edge.index] += 1.0

        internal = network.internal_vertices()
        conservation = np.zeros((len(internal), num_edges))
        for row, vertex in enumerate(internal):
            for edge in network.in_edges(vertex):
                conservation[row, edge.index] += 1.0
            for edge in network.out_edges(vertex):
                conservation[row, edge.index] -= 1.0
        rhs = np.zeros(len(internal))

        bounds = [
            (0.0, edge.capacity if not edge.is_uncapacitated else cap_bound)
            for edge in edges
        ]

        from scipy.optimize import linprog

        outcome = linprog(
            c=objective,
            A_eq=conservation if len(internal) else None,
            b_eq=rhs if len(internal) else None,
            bounds=bounds,
            method=self.method,
        )
        if not outcome.success:
            raise AlgorithmError(f"LP max-flow solve failed: {outcome.message}")

        flows: Dict[int, float] = {edge.index: float(outcome.x[edge.index]) for edge in edges}
        elapsed = time.perf_counter() - start
        result = MaxFlowResult(
            flow_value=float(-outcome.fun),
            edge_flows=flows,
            algorithm=self.name,
            operations=OperationCounter(),
            wall_time_s=elapsed,
            iterations=int(getattr(outcome, "nit", 0) or 0),
        )
        if validate:
            from .base import validate_max_flow

            validate_max_flow(network, result, capacity_tol=1e-6, conservation_tol=1e-6)
        return result


def solve_lp_maxflow(network: FlowNetwork, **kwargs) -> MaxFlowResult:
    """Solve ``network`` with :class:`LinearProgrammingSolver`."""
    return LinearProgrammingSolver(**kwargs).solve(network)
