"""Solver backends, created by name.

A backend turns one :class:`~repro.service.api.SolveRequest` into one
:class:`~repro.service.api.SolveResult`.  Two families ship with the
service:

* :class:`AnalogBackend` — the paper's pipeline (quantize → compile → MNA
  solve → readout) via :class:`~repro.analog.solver.AnalogMaxFlowSolver`,
  with compiled circuits memoized per network topology;
* :class:`ClassicalBackend` — any algorithm registered in
  :data:`repro.flows.registry.ALGORITHMS` (Dinic, push-relabel, ...).

:func:`create_backend` maps a request's backend name onto one of them:
``"analog"`` or an ``ALGORITHMS`` name, which means the same
implementation here as everywhere else.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..analog.solver import AnalogMaxFlowSolver
from ..errors import AlgorithmError
from ..flows.registry import ALGORITHMS, get_algorithm
from ..graph.analysis import is_source_sink_connected
from ..obs import probes
from ..obs.trace import span
from ..resilience.faults import corrupt_value, fault_point
from ..resilience.policy import Deadline, deadline_scope
from .api import SolveRequest, SolveResult, relative_error
from .cache import CompiledCircuitCache, analog_config_signature, network_signature

__all__ = [
    "SolveBackend",
    "AnalogBackend",
    "ClassicalBackend",
    "create_backend",
    "available_backends",
]


class SolveBackend:
    """Base class: solve one request, returning a normalised result.

    Subclasses implement :meth:`_solve` returning ``(flow_value, edge_flows,
    detail, cache_hit)``; the base class handles timing, error capture and
    reference-error computation so every backend reports uniformly.
    """

    name = "abstract"

    def solve(self, request: SolveRequest) -> SolveResult:
        """Solve ``request``, never raising: failures become ``ok=False`` results.

        ``request.options["deadline_s"]`` opens a cooperative wall-clock
        budget around the solve (see :mod:`repro.resilience.policy`); an
        ambient deadline from an enclosing :func:`deadline_scope` stays in
        force if it is tighter.  Failures carry ``error_type`` (the
        exception class name) so callers can route on failure class.

        Every attempt (success or typed failure) records its wall time
        into the ``service.solve.seconds{backend=}`` histogram via
        ``probes.solve_timed`` — the per-backend latency series the SLO
        latency objectives in :mod:`repro.obs.slo` are computed from.
        """
        start = time.perf_counter()
        with span("backend.solve", backend=self.name) as sp:
            try:
                budget = request.options.get("deadline_s")
                with deadline_scope(Deadline.from_seconds(budget, label=self.name)):
                    fault_point("batch-solve", self.name)
                    flow_value, edge_flows, detail, cache_hit = self._solve(request)
            except Exception as exc:  # noqa: BLE001 - per-instance fault isolation
                wall_time = time.perf_counter() - start
                sp.set(ok=False, error_type=type(exc).__name__)
                probes.solve_error(self.name, type(exc).__name__)
                probes.solve_timed(self.name, wall_time)
                return SolveResult(
                    request=request,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    wall_time_s=wall_time,
                )
            sp.set(ok=True, cache_hit=cache_hit)
            probes.solve_finished(self.name, cache_hit)
        wall_time = time.perf_counter() - start
        probes.solve_timed(self.name, wall_time)
        return SolveResult(
            request=request,
            flow_value=flow_value,
            edge_flows=edge_flows,
            wall_time_s=wall_time,
            cache_hit=cache_hit,
            relative_error=relative_error(flow_value, request.reference_value),
            detail=detail,
        )

    # -- to be provided by subclasses ----------------------------------

    def _solve(self, request: SolveRequest):
        raise NotImplementedError


class ClassicalBackend(SolveBackend):
    """Backend wrapping one classical algorithm from the flows registry.

    Parameters
    ----------
    algorithm:
        Name from :data:`repro.flows.registry.ALGORITHMS`.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import ClassicalBackend, SolveRequest
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 5.0)
    >>> result = ClassicalBackend("dinic").solve(SolveRequest(network=g))
    >>> result.ok, round(result.flow_value, 2), result.detail.algorithm
    (True, 5.0, 'dinic')
    """

    def __init__(self, algorithm: str) -> None:
        self.algorithm = algorithm
        self.name = algorithm
        get_algorithm(algorithm)  # fail fast on unknown names

    def _solve(self, request: SolveRequest):
        solver = get_algorithm(self.algorithm)
        validate = bool(request.options.get("validate", False))
        result = solver.solve(request.network, validate=validate)
        return result.flow_value, result.edge_flows, result, False


class AnalogBackend(SolveBackend):
    """Backend running the analog substrate pipeline, with compile memoization.

    Parameters
    ----------
    solver:
        Configured :class:`~repro.analog.solver.AnalogMaxFlowSolver`
        (Table 1 defaults when omitted).
    cache:
        Compiled-circuit cache shared across requests; ``None`` disables
        memoization.

    Notes
    -----
    The cache is consulted only for plain DC solves: transient solves and
    adaptive-drive solves recompile at varying drive voltages, so they go
    through :meth:`AnalogMaxFlowSolver.solve` untouched.  Cache keys combine
    the network topology hash with the solver configuration and drive
    voltage, so two differently-configured backends never share entries.
    Each cached circuit carries its pre-built MNA system and compiled stamp
    template (:meth:`CompiledMaxFlowCircuit.mna`), so a cache hit pays only
    the linear solves of the DC iteration.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import AnalogBackend, CompiledCircuitCache, SolveRequest
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 2.0)
    >>> backend = AnalogBackend(cache=CompiledCircuitCache())
    >>> first = backend.solve(SolveRequest(network=g))
    >>> second = backend.solve(SolveRequest(network=g))
    >>> first.cache_hit, second.cache_hit
    (False, True)
    """

    name = "analog"

    def __init__(
        self,
        solver: Optional[AnalogMaxFlowSolver] = None,
        cache: Optional[CompiledCircuitCache] = None,
    ) -> None:
        self.solver = solver if solver is not None else AnalogMaxFlowSolver()
        self.cache = cache

    def _solve(self, request: SolveRequest):
        method = request.options.get("method", "dc")
        vflow_v = request.options.get("vflow_v")
        cacheable = (
            self.cache is not None
            and method == "dc"
            and not self.solver.adaptive_drive
            and is_source_sink_connected(request.network)
        )
        if cacheable:
            drive = float(vflow_v) if vflow_v is not None else self.solver.parameters.vflow_v
            key = (
                network_signature(request.network),
                analog_config_signature(self.solver),
                drive,
            )
            hit, compiled = self.cache.lookup(key)
            if not hit:
                compiled = self.solver.compile(request.network, vflow_v=drive)
                # Pre-build the MNA system and its compiled stamp template so
                # they are memoized alongside the circuit: cache hits skip
                # compile, index assignment AND stamp-template construction.
                compiled.mna()
                self.cache.store(key, compiled)
            result = self.solver.solve_compiled(compiled)
            return (*analog_readout(result), result, hit)
        result = self.solver.solve(
            request.network,
            method=method,
            vflow_v=vflow_v,
            measure_convergence=bool(request.options.get("measure_convergence", False)),
        )
        return (*analog_readout(result), result, False)


def analog_readout(result) -> Tuple[float, Dict[int, float]]:
    """Final analog readout ``(flow_value, edge_flows)``, via the corrupt hook.

    Every analog answer that leaves a service passes the fault injector's
    ``analog-readout`` site here.  An injected corruption scales value and
    edge flows by the same factor, so the corrupted result stays
    self-consistent and only capacity validation (saturated min-cut edges
    now overflow) can reject it — the realistic failure mode for a
    mis-read substrate.
    """
    flow_value = corrupt_value("analog-readout", "analog", result.flow_value)
    edge_flows = result.edge_flows
    if flow_value != result.flow_value and result.flow_value != 0.0:
        factor = flow_value / result.flow_value
        edge_flows = {k: f * factor for k, f in edge_flows.items()}
    return flow_value, edge_flows


def available_backends() -> List[str]:
    """Sorted names of every backend :func:`create_backend` accepts."""
    return sorted(["analog", *ALGORITHMS])


def create_backend(
    name: str,
    analog_solver: Optional[AnalogMaxFlowSolver] = None,
    cache: Optional[CompiledCircuitCache] = None,
) -> SolveBackend:
    """Instantiate the backend named ``name``.

    Parameters
    ----------
    name:
        ``"analog"`` or a :data:`repro.flows.registry.ALGORITHMS` name
        (``"kernel"``, ``"dinic"``, ...).
    analog_solver, cache:
        Configuration injected into the ``"analog"`` backend; ignored by
        the others.

    Raises
    ------
    AlgorithmError
        For unknown backend names.
    """
    if name == "analog":
        return AnalogBackend(solver=analog_solver, cache=cache)
    if name not in ALGORITHMS:
        known = ", ".join(available_backends())
        raise AlgorithmError(f"unknown backend {name!r}; known: {known}")
    return ClassicalBackend(name)
