"""Registry of classical max-flow solvers.

Benchmarks, examples and the batch service select a CPU baseline by name;
the registry maps those names to solver factories so call sites never import
algorithm classes directly.  The same names are valid backend names for
:class:`repro.service.batch.BatchSolveService`, and each name means exactly
one implementation everywhere: ``"dinic"`` is the reference Dinic,
``"kernel"`` the flat-array kernel, which runs scipy's compiled Dinic in
scaled integer rounds or, for uncapacitated and for large square-grid-like
real-valued networks, a lockstep preflow-push
(:func:`~repro.flows.kernel.pick_core`).

>>> from repro import FlowNetwork
>>> from repro.flows.registry import solve_max_flow
>>> g = FlowNetwork()
>>> _ = g.add_edge("s", "a", 3.0)
>>> _ = g.add_edge("a", "t", 2.0)
>>> solve_max_flow(g, algorithm="push-relabel").flow_value
2.0
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import AlgorithmError
from ..graph.network import FlowNetwork
from .base import MaxFlowResult
from .dinic import Dinic
from .edmonds_karp import EdmondsKarp
from .ford_fulkerson import FordFulkerson
from .kernel import KernelDinic
from .linprog import LinearProgrammingSolver
from .push_relabel import PushRelabel

__all__ = ["ALGORITHMS", "DEFAULT_EXACT_ALGORITHM", "get_algorithm", "solve_max_flow"]


#: Solver factories by public algorithm name.  Every entry is a zero-argument
#: callable returning a fresh solver instance, so concurrent callers (the
#: batch service's worker pool) never share mutable solver state.
ALGORITHMS: Dict[str, Callable[[], object]] = {
    "ford-fulkerson": FordFulkerson,
    "edmonds-karp": EdmondsKarp,
    "dinic": Dinic,
    "push-relabel": PushRelabel,
    "push-relabel-fifo": lambda: PushRelabel(selection="fifo"),
    "lp-reference": LinearProgrammingSolver,
    "kernel": KernelDinic,
}

#: The engine of every cold exact solve that names no algorithm: the
#: server's exact route, the problem service, the first unsharded hop of
#: every ``"sharded:*"`` failover chain and :func:`repro.flows.mincut.min_cut`.
DEFAULT_EXACT_ALGORITHM = "kernel"


def get_algorithm(name: str):
    """Instantiate the solver registered under ``name``.

    Parameters
    ----------
    name:
        Key in :data:`ALGORITHMS` (``"dinic"``, ``"push-relabel"``, ...).

    Returns
    -------
    FlowAlgorithm
        A fresh solver instance.

    Raises
    ------
    AlgorithmError
        For unknown names; the message lists the known ones.

    Examples
    --------
    >>> from repro.flows.registry import get_algorithm
    >>> get_algorithm("dinic").name
    'dinic'
    >>> get_algorithm("simplex")
    Traceback (most recent call last):
        ...
    repro.errors.AlgorithmError: unknown algorithm 'simplex'; known: dinic, \
edmonds-karp, ford-fulkerson, kernel, lp-reference, push-relabel, \
push-relabel-fifo
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError as exc:
        known = ", ".join(sorted(ALGORITHMS))
        raise AlgorithmError(f"unknown algorithm {name!r}; known: {known}") from exc
    return factory()


def solve_max_flow(
    network: FlowNetwork, algorithm: str = "dinic", validate: bool = False
) -> MaxFlowResult:
    """Solve ``network`` with the named classical algorithm.

    Parameters
    ----------
    network:
        The flow network to solve.
    algorithm:
        Key in :data:`ALGORITHMS`.
    validate:
        When set, the returned flow is checked for feasibility and an
        :class:`~repro.errors.InfeasibleFlowError` is raised on violation.

    Returns
    -------
    MaxFlowResult
        Flow value, per-edge flows and operation counters.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.flows.registry import solve_max_flow
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 4.5)
    >>> result = solve_max_flow(g, algorithm="edmonds-karp", validate=True)
    >>> result.flow_value, result.algorithm
    (4.5, 'edmonds-karp')
    """
    solver = get_algorithm(algorithm)
    return solver.solve(network, validate=validate)
