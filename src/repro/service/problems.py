"""Service front door for the problem→flow reduction subsystem.

:class:`ProblemSolveService` runs any :class:`~repro.problems.base.Problem`
through any registered max-flow backend: the reduction's network is solved
by the batch service (classical algorithms, the analog substrate, or
N-way sharding with ``shards=N``), the answer is decoded back into the domain,
and the decoded solution is certified by its max-flow/min-cut duality
witness.  One :class:`ProblemReport` records the reduction, the backend, the
network size, where the decode came from and the certificate status::

    from repro.problems import BipartiteMatching
    from repro.service import ProblemSolveService

    service = ProblemSolveService()
    solved = service.solve(problem, backend="analog")
    print(solved.value, solved.report.certificate_status)

Decode routing
--------------
Backends differ in what they can hand the decoder:

* **classical** backends return an exact integral max flow — the decode
  reads it (and the min cut extracted from it) directly;
* the **analog** backend returns an approximate flow, so the decode runs a
  *decode pass* (one exact Dinic solve of the already-built reduction) and
  the analog value is cross-checked against the certified value to the
  backend's tolerance;
* a **sharded** backend (``shards=N`` routes to ``"sharded:<backend>"``)
  natively returns a *cut* — cut-decoding problems (segmentation, closure)
  decode its stitched partition directly, with the coordinator's dual
  bound closing the optimality gap; flow-decoding problems (matching,
  paths) fall back to the decode pass.

The decode inputs come from what actually ran: when failover replaced a
failed backend, the fallback's flow is decoded like any classical answer.
If a backend-faithful decode fails its certificate, the service retries
once through the decode pass, so a returned solution is certified whenever
the reduction itself is sound; the report's ``decode_source`` says which
path produced it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..errors import CertificateError, ProblemError, SolveTimeoutError
from ..flows.dinic import Dinic
from ..flows.mincut import MinCutResult, min_cut_from_flow
from ..flows.registry import ALGORITHMS, DEFAULT_EXACT_ALGORITHM
from ..obs.trace import annotate_span, span
from ..problems.base import Problem, Reduction, Solution
from ..resilience.failover import FailoverPolicy
from ..resilience.policy import Deadline, RetryPolicy, deadline_scope
from ..shard.coordinator import ShardOutcome
from .api import SolveRequest, SolveResult, relative_error

__all__ = ["ProblemReport", "ProblemSolve", "ProblemSolveService"]

#: Relative flow-value tolerance granted to each backend family when the
#: backend's answer is cross-checked against the certified exact value.
BACKEND_VALUE_RTOL: Dict[str, float] = {"analog": 2e-2, "sharded": 1e-6}
_EXACT_RTOL = 1e-9


@dataclass
class ProblemReport:
    """Telemetry of one reduction solve.

    Attributes
    ----------
    kind:
        Problem kind (``"bipartite-matching"``, ...).
    backend:
        Backend the reduced network was solved on (``"sharded:dinic"`` for
        sharded runs; the fallback's name when failover replaced it).
    shards:
        Shard count when a sharded backend produced the answer (``0``
        otherwise).
    network_vertices, network_edges:
        Size of the reduced flow network.
    objective_value:
        Certified domain objective (matching size, path count, energy,
        profit).
    backend_objective:
        Domain objective implied by the backend's raw flow value (equal to
        ``objective_value`` for exact backends; within tolerance for the
        analog substrate).
    backend_value_error:
        Relative error of the backend's flow value against the certified
        flow value (``None`` when they are identical by construction).
    certificate_status:
        ``"certified"`` or ``"FAILED: ..."`` from the duality certificate.
    decode_source:
        ``"backend"``, ``"partition"`` or ``"decode-pass"`` — where the
        decoded structures came from.
    reduce_time_s, solve_time_s, decode_time_s, wall_time_s:
        Stage timings (build the reduction / backend solve / decode +
        certify / end-to-end).
    """

    kind: str
    backend: str
    shards: int
    network_vertices: int
    network_edges: int
    objective_value: float
    backend_objective: float
    backend_value_error: Optional[float]
    certificate_status: str
    decode_source: str
    reduce_time_s: float = 0.0
    solve_time_s: float = 0.0
    decode_time_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def certified(self) -> bool:
        """True when the duality certificate passed."""
        return self.certificate_status == "certified"

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics as one flat dictionary."""
        return {
            "kind": self.kind,
            "backend": self.backend,
            "shards": self.shards,
            "|V|": self.network_vertices,
            "|E|": self.network_edges,
            "objective": self.objective_value,
            "backend_objective": self.backend_objective,
            "backend_value_error": self.backend_value_error,
            "certificate": self.certificate_status,
            "decode_source": self.decode_source,
            "reduce_time_s": self.reduce_time_s,
            "solve_time_s": self.solve_time_s,
            "decode_time_s": self.decode_time_s,
            "wall_time_s": self.wall_time_s,
        }

    def telemetry(self) -> Dict[str, object]:
        """The unified ``repro.telemetry/v1`` document for this solve.

        Same shape as :meth:`repro.service.api.BatchReport.telemetry` —
        including the ``trace`` section; the problems layer
        owns no compiled-circuit cache, so the ``cache`` section is empty
        (see :mod:`repro.obs.telemetry`).
        """
        from ..obs.telemetry import build_telemetry

        return build_telemetry("problems", self.summary())

    def format(self) -> str:
        """One human-readable line naming reduction, size and certificate."""
        error = (
            f", backend err {self.backend_value_error:.2e}"
            if self.backend_value_error is not None
            else ""
        )
        return (
            f"{self.kind} via {self.backend}: objective {self.objective_value:.6g} "
            f"on |V|={self.network_vertices}, |E|={self.network_edges} "
            f"({self.certificate_status}, decode {self.decode_source}{error}; "
            f"{self.wall_time_s:.3f} s)"
        )


@dataclass
class ProblemSolve:
    """A certified domain :class:`~repro.problems.base.Solution` plus telemetry.

    Attributes
    ----------
    solution:
        The decoded, certificate-checked domain answer.
    result:
        The backend's service-shaped :class:`~repro.service.api.SolveResult`
        on the reduced network.
    report:
        The :class:`ProblemReport` for this solve.
    """

    solution: Solution
    result: SolveResult
    report: ProblemReport

    @property
    def value(self) -> float:
        """Certified domain objective (shorthand for ``solution.value``)."""
        return self.solution.value

    @property
    def certified(self) -> bool:
        """True when the duality certificate passed."""
        return self.report.certified


class ProblemSolveService:
    """Solve reduced problems on any backend, with certified decoding.

    Parameters
    ----------
    batch_service:
        :class:`~repro.service.batch.BatchSolveService` used for classical
        and analog solves (its ``failover`` setting governs
        :meth:`solve_batch`; single solves follow ``failover`` below).
        When omitted, one is created with an unquantized adaptive-drive
        analog solver — the certificate-grade analog configuration
        (quantization error would otherwise dominate the cross-check
        tolerance).
    strict:
        When set, a failed certificate raises
        :class:`~repro.errors.CertificateError` instead of returning a
        report with ``certified == False``.
    retry:
        :class:`~repro.resilience.policy.RetryPolicy` for the exact decode
        pass (a transient fault in the certifying Dinic solve is retried
        instead of losing the whole problem solve); two zero-delay attempts
        by default.
    failover:
        When a backend fails at solve time, walk its degradation chain
        (e.g. ``analog -> kernel -> dinic``) through
        :func:`~repro.resilience.failover.solve_with_failover`, one
        attempt per stage and without flow re-validation: the decode +
        certificate machinery judges whichever answer comes back.  The
        result is marked ``degraded`` with a ``failover_trail``.  A sharded
        solve degrades to unsharded exact solves the same way.  Unknown
        backend names, malformed shard counts and timeouts still fail
        fast.  ``False`` restores strict fail-fast behaviour.

    Examples
    --------
    >>> from repro.problems import BipartiteMatching
    >>> from repro.service import ProblemSolveService
    >>> problem = BipartiteMatching(["a", "b"], ["x"], [("a", "x"), ("b", "x")])
    >>> solved = ProblemSolveService().solve(problem, backend="dinic")
    >>> int(solved.value), solved.certified, solved.report.decode_source
    (1, True, 'backend')
    """

    def __init__(
        self,
        batch_service=None,
        strict: bool = False,
        retry: Optional[RetryPolicy] = None,
        failover: bool = True,
    ) -> None:
        if batch_service is None:
            from ..analog.solver import AnalogMaxFlowSolver
            from .batch import BatchSolveService

            batch_service = BatchSolveService(
                analog_solver=AnalogMaxFlowSolver(quantize=False, adaptive_drive=True)
            )
        self.batch = batch_service
        self.strict = strict
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, base_delay_s=0.0
        )
        self.failover = failover

    # ------------------------------------------------------------------

    def solve(
        self,
        problem: Problem,
        backend: str = DEFAULT_EXACT_ALGORITHM,
        shards: Optional[int] = None,
        tag: Optional[str] = None,
        value_rtol: Optional[float] = None,
        deadline: "Deadline | float | None" = None,
        **options: Any,
    ) -> ProblemSolve:
        """Reduce ``problem``, solve it on ``backend``, decode and certify.

        Parameters
        ----------
        problem:
            Any :class:`~repro.problems.base.Problem`.
        backend:
            Backend name (``"kernel"``, ``"dinic"``, ``"analog"``, ...);
            with ``shards`` set it names the per-shard engine.
        shards:
            Solve on ``"sharded:<backend>"`` with this many shards (and
            ``max_iterations`` defaulting to 120).
        tag:
            Free-form label echoed into the underlying solve request.
        value_rtol:
            Override of the backend's flow-value cross-check tolerance
            (defaults: exact backends 1e-9, analog 2e-2).
        deadline:
            Optional wall-clock budget (seconds or a
            :class:`~repro.resilience.policy.Deadline`) covering reduce,
            every solve attempt (primary *and* failover) and the decode
            pass; expiry raises :class:`~repro.errors.SolveTimeoutError`.
        **options:
            Passed through to the underlying backend as request options.

        Returns
        -------
        ProblemSolve
            Certified solution, backend result and report.
        """
        with span(
            "problem.solve", kind=problem.kind, backend=backend
        ), deadline_scope(deadline, label=f"problem {problem.kind}"):
            return self._solve_scoped(
                problem, backend, shards, tag, value_rtol, options
            )

    def _solve_scoped(
        self, problem, backend, shards, tag, value_rtol, options
    ) -> ProblemSolve:
        start = time.perf_counter()
        with span("problem.reduce", kind=problem.kind):
            reduction = problem.reduce()
        reduce_time = time.perf_counter() - start
        if shards is not None:
            backend = f"sharded:{backend}"
            options = {"max_iterations": 120, **options, "shards": shards}
        result = self._solve_flat(reduction, backend, tag, options)
        return self._finish(problem, reduction, result, reduce_time, start, value_rtol)

    def solve_batch(
        self,
        problems: Sequence[Problem],
        backend: str = DEFAULT_EXACT_ALGORITHM,
        **options: Any,
    ) -> List[ProblemSolve]:
        """Solve many problems concurrently through the batch service.

        The reductions are built up front, their networks go through
        :meth:`~repro.service.batch.BatchSolveService.solve_batch` as one
        batch (sharing its worker pool and compiled-circuit cache), and
        each answer is decoded and certified in request order.  Every
        report's ``wall_time_s`` counts from the start of the call.
        """
        started = time.perf_counter()
        reductions: List[Reduction] = []
        reduce_times: List[float] = []
        for problem in problems:
            t0 = time.perf_counter()
            reductions.append(problem.reduce())
            reduce_times.append(time.perf_counter() - t0)
        requests = [
            SolveRequest(
                network=r.network, backend=backend, options=dict(options), tag=r.kind
            )
            for r in reductions
        ]
        batch = self.batch.solve_batch(requests)
        return [
            self._finish(problem, reduction, result, reduce_time, started)
            for problem, reduction, result, reduce_time in zip(
                problems, reductions, batch.results, reduce_times
            )
        ]

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------

    def _finish(
        self,
        problem: Problem,
        reduction: Reduction,
        result: SolveResult,
        reduce_time_s: float,
        started: float,
        value_rtol: Optional[float] = None,
    ) -> ProblemSolve:
        """Decode, certify and report one solved reduction (every route).

        ``started`` is the ``perf_counter`` stamp the report's wall time
        counts from.
        """
        backend = result.backend
        if not result.ok:
            if result.error_type == SolveTimeoutError.__name__:
                raise SolveTimeoutError(
                    f"{problem.kind}: backend {backend!r} timed out: {result.error}"
                )
            raise ProblemError(
                f"{problem.kind}: backend {backend!r} failed: {result.error}"
            )
        flow, cut, decode_source = self._decode_inputs(reduction, result)

        t0 = time.perf_counter()
        with span("problem.decode", kind=problem.kind):
            solution, certificate, decode_source = self._decode_certified(
                problem, reduction, flow, cut, decode_source
            )
        decode_time = time.perf_counter() - t0

        if decode_source == "partition":
            certificate.require(
                "sharded-converged",
                bool(result.detail.converged),
                "coordinator did not converge; partition not certified",
            )
        rtol = value_rtol if value_rtol is not None else self._default_rtol(backend)
        certificate.require(
            "backend-value-consistent",
            self._close(result.flow_value, solution.flow_value, rtol),
            f"backend flow {result.flow_value} vs certified {solution.flow_value} "
            f"(rtol {rtol})",
        )
        solution.certificate = certificate

        backend_objective = reduction.objective_from_flow(result.flow_value)
        report = ProblemReport(
            kind=problem.kind,
            backend=backend,
            shards=(
                result.detail.num_shards
                if isinstance(result.detail, ShardOutcome)
                else 0
            ),
            network_vertices=reduction.num_vertices,
            network_edges=reduction.num_edges,
            objective_value=solution.value,
            backend_objective=backend_objective,
            backend_value_error=relative_error(backend_objective, solution.value),
            certificate_status=certificate.status,
            decode_source=decode_source,
            reduce_time_s=reduce_time_s,
            solve_time_s=result.wall_time_s,
            decode_time_s=decode_time,
            wall_time_s=time.perf_counter() - started,
        )
        annotate_span(
            decode_source=decode_source,
            certificate=certificate.status,
            reduce_time_s=reduce_time_s,
            decode_time_s=decode_time,
        )
        if self.strict and not certificate.ok:
            raise CertificateError(f"{problem.kind} via {backend}: {certificate.status}")
        return ProblemSolve(solution=solution, result=result, report=report)

    def _solve_flat(self, reduction, backend, tag, options) -> SolveResult:
        """One solve on the batch service's backends, degrading on failure."""
        request = SolveRequest(
            network=reduction.network, backend=backend, options=dict(options), tag=tag
        )
        policy = None
        if self.failover:
            # Built per solve, so no breaker state links independent problems.
            policy = FailoverPolicy(
                retry=RetryPolicy(max_attempts=1, base_delay_s=0.0), validate=False
            )
        return self.batch._solve_one(request, policy)

    @staticmethod
    def _decode_inputs(reduction, result):
        """``(flow, cut, decode_source)`` from the backend that actually ran.

        A classical flow decodes natively; a converged shard outcome
        decodes from its stitched partition; anything else (an analog
        flow, an unconverged partition that is only an upper bound) goes
        through the exact decode pass.
        """
        network = reduction.network
        detail = result.detail
        if isinstance(detail, ShardOutcome):
            if not detail.converged:
                return None, None, "decode-pass"
            source_side = frozenset(detail.partition)
            cut = MinCutResult(
                cut_value=detail.cut_value,
                source_side=source_side,
                sink_side=frozenset(network.vertices()) - source_side,
                cut_edges=tuple(
                    e.index
                    for e in network.edges()
                    if e.tail in source_side and e.head not in source_side
                ),
            )
            return None, cut, "partition"
        if result.backend in ALGORITHMS:
            return detail, min_cut_from_flow(network, detail), "backend"
        return None, None, "decode-pass"

    def _decode_certified(self, problem, reduction, flow, cut, decode_source):
        """Decode + verify; retry once through the exact decode pass."""
        if decode_source in ("backend", "partition") and (
            flow is not None or cut is not None
        ):
            try:
                solution = problem.decode(reduction, flow=flow, cut=cut)
                certificate = problem.verify(
                    reduction, solution, flow=flow, cut=cut, tolerance=_EXACT_RTOL
                )
                if certificate.ok:
                    return solution, certificate, decode_source
            except ProblemError:
                pass
        flow, cut = self.retry.run(
            lambda: self._decode_pass(reduction), describe="exact decode pass"
        )
        solution = problem.decode(reduction, flow=flow, cut=cut)
        certificate = problem.verify(
            reduction, solution, flow=flow, cut=cut, tolerance=_EXACT_RTOL
        )
        return solution, certificate, "decode-pass"

    @staticmethod
    def _decode_pass(reduction):
        """One exact Dinic solve of the reduction, for decoding/certifying."""
        flow = Dinic().solve(reduction.network)
        cut = min_cut_from_flow(reduction.network, flow)
        return flow, cut

    @staticmethod
    def _default_rtol(backend_name: str) -> float:
        """Backend-family flow-value tolerance for the consistency check."""
        if backend_name.startswith("sharded:"):
            return BACKEND_VALUE_RTOL["sharded"]
        return BACKEND_VALUE_RTOL.get(backend_name, _EXACT_RTOL)

    #: Relative closeness — the problem layer's scale convention, shared
    #: with the certificate checks so the tolerances can never diverge.
    _close = staticmethod(Problem._values_close)
