"""Classical (digital) maximum-flow algorithms and the CPU baseline model.

This package provides from-scratch implementations of the standard max-flow
algorithms the paper discusses in its related-work section and uses as the
CPU baseline in its evaluation:

* :mod:`~repro.flows.ford_fulkerson` — DFS augmenting paths (Ford–Fulkerson)
* :mod:`~repro.flows.edmonds_karp` — BFS augmenting paths
* :mod:`~repro.flows.dinic` — Dinitz blocking-flow algorithm
* :mod:`~repro.flows.push_relabel` — Goldberg–Tarjan push-relabel (FIFO and
  highest-label selection, gap and global-relabel heuristics); this is the
  algorithm the paper benchmarks against on a 3 GHz Xeon.
* :mod:`~repro.flows.kernel` — flat-array kernel (``"kernel"``): scipy's
  compiled Dinic in scaled integer rounds or a lockstep preflow-push, the
  default engine of cold exact solves.
* :mod:`~repro.flows.linprog` — reference LP formulation solved with
  :func:`scipy.optimize.linprog`.
* :mod:`~repro.flows.mincut` — minimum-cut extraction from a maximum flow.
* :mod:`~repro.flows.incremental` — warm-started max-flow repair for
  streaming edit batches (the classical half of ``repro.service.streaming``).
* :mod:`~repro.flows.cost_model` — operation-count based CPU time/energy model
  used to approximate the paper's compiled-C baseline from Python.
"""

from .base import FlowAlgorithm, MaxFlowResult, ResidualNetwork, validate_max_flow
from .ford_fulkerson import FordFulkerson, ford_fulkerson
from .kernel import FlatResidual, KernelDinic
from .edmonds_karp import EdmondsKarp, edmonds_karp
from .dinic import Dinic, dinic
from .push_relabel import PushRelabel, push_relabel
from .linprog import LinearProgrammingSolver, solve_lp_maxflow
from .mincut import MinCutResult, min_cut_from_flow, min_cut
from .cost_model import CpuCostModel, CpuEstimate
from .incremental import IncrementalMaxFlow
from .registry import ALGORITHMS, DEFAULT_EXACT_ALGORITHM, get_algorithm, solve_max_flow

__all__ = [
    "FlowAlgorithm",
    "MaxFlowResult",
    "ResidualNetwork",
    "validate_max_flow",
    "FordFulkerson",
    "ford_fulkerson",
    "EdmondsKarp",
    "edmonds_karp",
    "Dinic",
    "dinic",
    "PushRelabel",
    "push_relabel",
    "LinearProgrammingSolver",
    "solve_lp_maxflow",
    "MinCutResult",
    "min_cut_from_flow",
    "min_cut",
    "CpuCostModel",
    "CpuEstimate",
    "IncrementalMaxFlow",
    "FlatResidual",
    "KernelDinic",
    "ALGORITHMS",
    "DEFAULT_EXACT_ALGORITHM",
    "get_algorithm",
    "solve_max_flow",
]
