"""Solver backends, created by name.

A backend turns one :class:`~repro.service.api.SolveRequest` into one
:class:`~repro.service.api.SolveResult`.  Three families ship with the
service:

* :class:`AnalogBackend` — the paper's pipeline (quantize → compile → MNA
  solve → readout) via :class:`~repro.analog.solver.AnalogMaxFlowSolver`,
  with compiled circuits memoized per network topology;
* :class:`ClassicalBackend` — any algorithm registered in
  :data:`repro.flows.registry.ALGORITHMS` (Dinic, push-relabel, ...);
* :class:`ShardedBackend` — Section 6.4's dual decomposition: the
  instance is split into overlapping shards, each solved by one engine,
  and the :class:`~repro.shard.ShardCoordinator` stitches their cuts.

:func:`create_backend` maps a request's backend name onto one of them:
``"analog"``, an ``ALGORITHMS`` name (which means the same
implementation here as everywhere else), or ``"sharded:<engine>"``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..analog.solver import AnalogMaxFlowSolver
from ..errors import AlgorithmError, DecompositionError
from ..flows.registry import ALGORITHMS, get_algorithm
from ..graph.analysis import is_source_sink_connected
from ..obs import probes
from ..obs.trace import span
from ..resilience.faults import corrupt_value, fault_point
from ..resilience.policy import RetryPolicy
from ..shard.coordinator import ShardCoordinator
from ..shard.partition import validate_partition_args
from .api import SolveRequest, SolveResult, relative_error
from .cache import CompiledCircuitCache, analog_config_signature, network_signature

__all__ = [
    "SolveBackend",
    "AnalogBackend",
    "ClassicalBackend",
    "ShardedBackend",
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

    def check(self, request: SolveRequest) -> None:
        """Raise for a request this backend can never solve; no-op by default.

        Services call it before anything runs, so a configuration mistake
        (``shards=1`` for a sharded backend) surfaces as an exception
        instead of a failed attempt that failover would route around.
        """

    def solve(self, request: SolveRequest) -> SolveResult:
        """Solve ``request``, never raising: failures become ``ok=False`` results.

        The solve runs under whatever deadline is ambient (the batch
        service opens ``request.options["deadline_s"]`` once around the
        whole request; see :mod:`repro.resilience.policy`).  Failures
        carry ``error_type`` (the exception class name) so callers can
        route on failure class.

        Every attempt (success or typed failure) records its wall time
        into the ``service.solve.seconds{backend=}`` histogram via
        ``probes.solve_timed``, the per-backend latency series that the
        telemetry snapshot carries.
        """
        start = time.perf_counter()
        with span("backend.solve", backend=self.name) as sp:
            try:
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
    the network's full digest with the solver configuration and drive
    voltage, so two differently-configured backends never share entries.
    Only connected networks are stored, so the source-sink connectivity
    check runs on misses only.  Each cached circuit carries its pre-built
    MNA system and compiled stamp template
    (:meth:`CompiledMaxFlowCircuit.mna`) and its warm DC state
    (:attr:`CompiledMaxFlowCircuit.warm_dc`): the LU factorisation and
    diode pattern its first solve settled at.  A hit settles from that
    pattern in one iteration, one triangular solve, with no factorisation.
    Each cached circuit holds about 0.3 MB more for it.

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
        if self.cache is not None and method == "dc" and not self.solver.adaptive_drive:
            drive = float(vflow_v) if vflow_v is not None else self.solver.parameters.vflow_v
            key = (
                network_signature(request.network),
                analog_config_signature(self.solver),
                drive,
            )
            hit, compiled = self.cache.lookup(key)
            # The key holds the full network digest and only connected
            # networks are stored, so only a miss needs the connectivity BFS.
            if hit or is_source_sink_connected(request.network):
                if not hit:
                    compiled = self.solver.compile(request.network, vflow_v=drive)
                    # Pre-build the MNA system and its compiled stamp template
                    # so they are memoized alongside the circuit: cache hits
                    # skip compile, index assignment AND stamp-template
                    # construction.
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


class ShardedBackend(SolveBackend):
    """Section 6.4's dual decomposition as a backend: ``"sharded:<engine>"``.

    The request's network is split into ``options["shards"]`` overlapping
    shards (default 2), every shard is solved by ``engine`` — any
    :data:`repro.flows.registry.ALGORITHMS` name, or ``"analog"`` for warm
    substrate re-solves — and the :class:`~repro.shard.ShardCoordinator`
    stitches their cuts for at most ``options["max_iterations"]``
    subgradient iterations (default 60).  A failed shard solve is retried
    once; its failed push left the shard's session cold, so the retry
    re-solves that shard from scratch.

    The answer is a *cut*: ``flow_value`` is the stitched cut value,
    ``edge_flows`` stays empty and ``detail`` is the
    :class:`~repro.shard.ShardOutcome` (partition, bound trajectory,
    per-shard rows).  A dual bound above the stitched cut raises
    :class:`~repro.errors.DecompositionError`, so failover can replace
    the answer with a certified unsharded one.  Analog shards use the
    shard layer's fixed-drive template (see
    :class:`~repro.shard.ShardExecutor`), not the service's solver:
    warm shard re-solves cannot escalate the drive.

    Parameters
    ----------
    engine:
        Per-shard engine name.
    executor, max_workers:
        The service executor layer the shard solves fan out over.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import SolveRequest, create_backend
    >>> g = FlowNetwork()
    >>> for triple in [("s", "a", 3.0), ("a", "b", 2.0), ("b", "t", 4.0)]:
    ...     _ = g.add_edge(*triple)
    >>> backend = create_backend("sharded:dinic", executor="serial")
    >>> result = backend.solve(SolveRequest(network=g, options={"shards": 2}))
    >>> round(result.flow_value, 2), result.detail.num_shards
    (2.0, 2)
    """

    def __init__(
        self, engine: str, executor: str = "thread", max_workers: Optional[int] = None
    ) -> None:
        if engine != "analog" and engine not in ALGORITHMS:
            known = ", ".join(["analog", *sorted(ALGORITHMS)])
            raise AlgorithmError(f"unknown shard engine {engine!r}; known: {known}")
        self.engine = engine
        self.name = f"sharded:{engine}"
        self.executor = executor
        self.max_workers = max_workers

    def check(self, request: SolveRequest) -> None:
        validate_partition_args(request.network, request.options.get("shards", 2))

    def _solve(self, request: SolveRequest):
        options = request.options
        coordinator = ShardCoordinator(
            num_shards=options.get("shards", 2),
            max_iterations=options.get("max_iterations", 60),
        )
        outcome = coordinator.solve(
            request.network,
            backend=self.engine,
            executor=self.executor,
            max_workers=self.max_workers,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        slack = 1e-6 * max(1.0, abs(outcome.cut_value))
        if outcome.dual_value > outcome.cut_value + slack:
            raise DecompositionError(
                f"bound bracket violated: dual {outcome.dual_value!r} "
                f"exceeds feasible {outcome.cut_value!r}"
            )
        return outcome.cut_value, {}, outcome, False


def available_backends() -> List[str]:
    """Sorted names of every unsharded backend :func:`create_backend` accepts.

    Each of them also runs per shard as ``"sharded:<name>"``.
    """
    return sorted(["analog", *ALGORITHMS])


def create_backend(
    name: str,
    analog_solver: Optional[AnalogMaxFlowSolver] = None,
    cache: Optional[CompiledCircuitCache] = None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
) -> SolveBackend:
    """Instantiate the backend named ``name``.

    Parameters
    ----------
    name:
        ``"analog"``, a :data:`repro.flows.registry.ALGORITHMS` name
        (``"kernel"``, ``"dinic"``, ...) or ``"sharded:<either>"``.
    analog_solver, cache:
        Configuration injected into the ``"analog"`` backend; ignored by
        the others.
    executor, max_workers:
        The executor layer a ``"sharded:*"`` backend fans its shard solves
        out over; ignored by the others.

    Raises
    ------
    AlgorithmError
        For unknown backend and shard engine names.
    """
    if name == "analog":
        return AnalogBackend(solver=analog_solver, cache=cache)
    if name.startswith("sharded:"):
        return ShardedBackend(
            name[len("sharded:"):], executor=executor, max_workers=max_workers
        )
    if name not in ALGORITHMS:
        known = ", ".join([*available_backends(), "sharded:<engine>"])
        raise AlgorithmError(f"unknown backend {name!r}; known: {known}")
    return ClassicalBackend(name)
