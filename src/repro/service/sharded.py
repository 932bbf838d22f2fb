"""Service front door for N-way partitioned (sharded) solving.

When an instance does not fit one solver or one analog substrate — or when
one cold solve would hog a worker for too long — the
:class:`ShardedSolveService` splits it into ``N`` overlapping shards
(:mod:`repro.shard`), coordinates them by dual decomposition and returns
the familiar :class:`~repro.service.api.SolveResult` alongside a
:class:`ShardReport` with per-shard timings, iteration counts and the
dual/feasible bound trajectory::

    from repro.service import ShardedSolveService

    service = ShardedSolveService(executor="thread")
    sharded = service.solve(network, shards=4, backend="dinic")
    print(sharded.result.flow_value)          # the min-cut = max-flow value
    print(sharded.report.format())            # per-shard + trajectory table

The sharded path computes a *cut* (labels), not an edge-flow assignment, so
``SolveResult.edge_flows`` stays empty; the stitched source-side partition
and the full coordinator outcome ride in ``SolveResult.detail`` /
``ShardReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import DecompositionError, ReproError, SolveTimeoutError
from ..flows.registry import DEFAULT_EXACT_ALGORITHM, get_algorithm
from ..graph.network import FlowNetwork
from ..obs.trace import span
from ..resilience.failover import certify_flow_result
from ..resilience.policy import Deadline, RetryPolicy, deadline_scope
from ..shard.coordinator import ShardCoordinator, ShardOutcome
from ..shard.partition import validate_partition_args
from .api import SolveRequest, SolveResult, relative_error
from .batch import EXECUTORS, _default_max_workers

__all__ = ["ShardReport", "ShardedSolve", "ShardedSolveService"]


@dataclass
class ShardReport:
    """Telemetry of one sharded solve.

    Attributes
    ----------
    num_shards:
        Shards the instance was split into.
    backend:
        Backend name (or per-shard names, comma-joined).
    executor:
        Service executor the shard solves fanned out over.
    max_workers:
        Worker-pool width used.
    iterations:
        Subgradient iterations performed.
    converged:
        Whether the coordinator reached agreement / closed the bound gap.
    disagreements:
        Overlap vertices still disagreeing at termination.
    cut_value, dual_value:
        Best feasible (upper) and dual (lower) bounds.
    bound_trajectory:
        Per-iteration ``(dual value, feasible value, disagreements)`` rows.
    shard_rows:
        Per-shard dict rows: sizes, multiplier edges, solves, cumulative
        solve seconds.
    partition_summary:
        Partitioner size summary (core/side/overlap counts).
    wall_time_s:
        End-to-end wall time of the sharded solve.
    """

    num_shards: int
    backend: str
    executor: str
    max_workers: int
    iterations: int
    converged: bool
    disagreements: int
    cut_value: float
    dual_value: float
    bound_trajectory: List[Tuple[float, float, int]] = field(default_factory=list)
    shard_rows: List[Dict[str, object]] = field(default_factory=list)
    partition_summary: Dict[str, object] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def duality_gap(self) -> float:
        """Gap between the feasible cut and the dual bound."""
        return self.cut_value - self.dual_value

    @property
    def shard_solve_time_total_s(self) -> float:
        """Summed per-shard solve seconds (CPU-side work, not wall time)."""
        return sum(float(row["solve_time_s"]) for row in self.shard_rows)

    @property
    def parallel_speedup(self) -> float:
        """Summed shard solve time over wall time (pool effectiveness)."""
        if self.wall_time_s <= 0:
            return 1.0
        return self.shard_solve_time_total_s / self.wall_time_s

    def as_rows(self) -> List[Dict[str, object]]:
        """Per-shard dict rows for :func:`repro.bench.reporting.format_table`."""
        rows: List[Dict[str, object]] = []
        for row in self.shard_rows:
            rows.append(
                {
                    "shard": row["shard"],
                    "backend": row["backend"],
                    "|V|": row["vertices"],
                    "|E|": row["edges"],
                    "mult.edges": row["multiplier_edges"],
                    "solves": row["solves"],
                    "time (s)": f"{float(row['solve_time_s']):.3e}",
                }
            )
        return rows

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics as one flat dictionary."""
        return {
            "shards": self.num_shards,
            "backend": self.backend,
            "executor": self.executor,
            "max_workers": self.max_workers,
            "iterations": self.iterations,
            "converged": self.converged,
            "disagreements": self.disagreements,
            "cut_value": self.cut_value,
            "dual_value": self.dual_value,
            "duality_gap": self.duality_gap,
            "wall_time_s": self.wall_time_s,
            "shard_solve_time_total_s": self.shard_solve_time_total_s,
            "parallel_speedup": self.parallel_speedup,
        }

    def telemetry(self) -> Dict[str, object]:
        """The unified ``repro.telemetry/v1`` document for this solve.

        Same shape as :meth:`repro.service.api.BatchReport.telemetry` —
        including the ``slo`` and ``trace`` sections; the sharded path has
        no compiled-circuit cache of its own, so the ``cache`` section is
        empty (see :mod:`repro.obs.telemetry`).
        """
        from ..obs.telemetry import build_telemetry

        return build_telemetry("sharded", self.summary())

    def format(self, title: Optional[str] = None) -> str:
        """Aligned ASCII table of the shard rows plus a summary footer."""
        from ..bench.reporting import format_table

        table = format_table(self.as_rows(), title=title)
        footer = (
            f"cut {self.cut_value:.6g} (dual {self.dual_value:.6g}, "
            f"gap {self.duality_gap:.3g}) in {self.iterations} iterations, "
            f"{'converged' if self.converged else 'NOT converged'}; "
            f"{self.wall_time_s:.3f} s wall ({self.executor}, "
            f"{self.max_workers} workers, speedup {self.parallel_speedup:.1f}x)"
        )
        return table + "\n" + footer


@dataclass
class ShardedSolve:
    """A :class:`~repro.service.api.SolveResult` plus its :class:`ShardReport`.

    Attributes
    ----------
    result:
        Service-shaped result (``flow_value`` is the stitched cut value —
        the max-flow value by strong duality on converged exact runs;
        ``detail`` carries the raw :class:`~repro.shard.ShardOutcome`).
    report:
        Per-shard timings, iterations and the bound trajectory.
    """

    result: SolveResult
    report: ShardReport

    @property
    def flow_value(self) -> float:
        """Shorthand for ``result.flow_value``."""
        return self.result.flow_value


class ShardedSolveService:
    """Solve instances larger than one substrate by N-way sharding.

    Parameters
    ----------
    executor:
        ``"thread"`` (default) or ``"serial"`` — the service executor layer
        the per-iteration shard solves fan out over.
    max_workers:
        Worker-pool width; defaults to ``min(shards, service default)``.
    analog_solver:
        Template :class:`~repro.analog.solver.AnalogMaxFlowSolver` for
        ``backend="analog"`` shards (cloned per shard with dedicated clamp
        sources, so subgradient iterations re-solve warm).

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import ShardedSolveService
    >>> g = FlowNetwork()
    >>> for triple in [("s", "a", 3.0), ("a", "b", 2.0), ("b", "t", 4.0)]:
    ...     _ = g.add_edge(*triple)
    >>> sharded = ShardedSolveService(executor="serial").solve(g, shards=2)
    >>> round(sharded.result.flow_value, 2), sharded.report.num_shards
    (2.0, 2)
    """

    def __init__(
        self,
        executor: str = "thread",
        max_workers: Optional[int] = None,
        analog_solver=None,
    ) -> None:
        if executor not in EXECUTORS:
            raise DecompositionError(f"unknown executor {executor!r}")
        if max_workers is not None and max_workers < 1:
            raise DecompositionError("max_workers must be at least 1")
        self.executor = executor
        self.max_workers = max_workers
        self.analog_solver = analog_solver

    # ------------------------------------------------------------------

    def solve(
        self,
        network: FlowNetwork,
        shards: int = 2,
        backend: Union[str, Sequence[str]] = "dinic",
        max_iterations: int = 60,
        initial_step: float = 0.25,
        gap_tolerance: float = 1e-9,
        partition_method: str = "bfs",
        fractions: Optional[Sequence[float]] = None,
        warm: bool = True,
        cold_ratio: float = 0.25,
        tag: Optional[str] = None,
        reference_value: Optional[float] = None,
        deadline: Union[Deadline, float, None] = None,
        retry: Optional[RetryPolicy] = None,
        fallback: bool = True,
    ) -> ShardedSolve:
        """Partition ``network`` into ``shards`` and coordinate the solve.

        Parameters
        ----------
        network:
            The instance to solve.
        shards:
            Shard count (>= 2).
        backend:
            Shard backend name, or one per shard — any classical algorithm
            from :data:`repro.flows.registry.ALGORITHMS` or ``"analog"``.
        max_iterations, initial_step, gap_tolerance, partition_method,
        fractions:
            Coordinator / partitioner knobs (see
            :class:`~repro.shard.ShardCoordinator`).
        warm, cold_ratio:
            Warm shard re-solves across subgradient iterations (classical
            shards repair the previous maximum flow through the
            incremental engine; analog shards always re-solve warm).
        tag, reference_value:
            Echoed into the :class:`~repro.service.api.SolveRequest`
            exactly like the batch service (``reference_value`` yields a
            ``relative_error`` on the result).
        deadline:
            Optional wall-clock budget (seconds or a
            :class:`~repro.resilience.policy.Deadline`) covering the whole
            sharded solve; the coordinator loop, every shard solver loop
            and any fallback all share it, raising
            :class:`~repro.errors.SolveTimeoutError` when it expires.
        retry:
            Per-shard retry policy (defaults to two attempts with a cold
            rebuild in between; pass an explicit policy to tune it).
        fallback:
            Degrade to one *unsharded* cold exact solve when the sharded
            path fails (shard solves exhaust their retries, the coordinator
            errors, or the bound bracket ``dual <= feasible`` is violated).
            The fallback result is validated against the strong-duality
            certificate before it is accepted and is marked ``degraded``.
            Timeouts never trigger the fallback — the expired budget is
            shared.  ``False`` restores fail-fast behaviour.

        Returns
        -------
        ShardedSolve
            ``result`` (service-shaped) plus ``report`` (telemetry).
        """
        # Configuration mistakes must fail fast — never degrade to fallback.
        validate_partition_args(network, shards, partition_method, fractions)
        backend_name = backend if isinstance(backend, str) else ",".join(backend)
        request = SolveRequest(
            network=network,
            backend=f"sharded:{backend_name}",
            options={"shards": shards, "executor": self.executor},
            tag=tag,
            reference_value=reference_value,
        )
        start = time.perf_counter()
        coordinator = ShardCoordinator(
            num_shards=shards,
            max_iterations=max_iterations,
            initial_step=initial_step,
            gap_tolerance=gap_tolerance,
            partition_method=partition_method,
            fractions=fractions,
        )
        if retry is None:
            retry = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        with span(
            "sharded.solve", backend=backend_name, executor=self.executor
        ) as sp, deadline_scope(deadline, label="sharded solve"):
            try:
                outcome = coordinator.solve(
                    network,
                    backend=backend,
                    executor=self.executor,
                    max_workers=self.max_workers,
                    analog_solver=self.analog_solver,
                    warm=warm,
                    cold_ratio=cold_ratio,
                    retry=retry,
                )
                if fallback and outcome.dual_value > outcome.cut_value + 1e-6 * max(
                    1.0, abs(outcome.cut_value)
                ):
                    raise DecompositionError(
                        f"bound bracket violated: dual {outcome.dual_value!r} "
                        f"exceeds feasible {outcome.cut_value!r}"
                    )
            except SolveTimeoutError:
                raise
            except ReproError as exc:
                if not fallback:
                    raise
                return self._fallback_solve(
                    request, backend_name, exc, start, reference_value
                )
            sp.set(
                shards=outcome.num_shards,
                iterations=outcome.iterations,
                converged=outcome.converged,
            )
        wall = time.perf_counter() - start

        result = SolveResult(
            request=request,
            flow_value=outcome.cut_value,
            edge_flows={},
            wall_time_s=wall,
            ok=True,
            relative_error=relative_error(outcome.cut_value, reference_value),
            detail=outcome,
        )
        report = self._report(outcome, backend_name, wall)
        return ShardedSolve(result=result, report=report)

    def _fallback_solve(
        self,
        request: SolveRequest,
        backend_name: str,
        cause: ReproError,
        start: float,
        reference_value: Optional[float],
    ) -> ShardedSolve:
        """Unsharded cold degradation: one exact solve, duality-validated.

        Runs inside the caller's :func:`deadline_scope`, so a budget that
        killed the sharded path also bounds (and may kill) the fallback.
        """
        with span("sharded.fallback", algorithm=DEFAULT_EXACT_ALGORITHM):
            flow = get_algorithm(DEFAULT_EXACT_ALGORITHM).solve(request.network)
            certify_flow_result(
                request.network, flow.flow_value, flow.edge_flows, exact=True
            )
        wall = time.perf_counter() - start
        trail = [f"sharded:{backend_name}: {type(cause).__name__}: {cause}"]
        result = SolveResult(
            request=request,
            flow_value=flow.flow_value,
            edge_flows=dict(flow.edge_flows),
            wall_time_s=wall,
            ok=True,
            degraded=True,
            failover_trail=trail,
            relative_error=relative_error(flow.flow_value, reference_value),
            detail=flow,
        )
        report = ShardReport(
            num_shards=1,
            backend=f"fallback:{DEFAULT_EXACT_ALGORITHM}",
            executor=self.executor,
            max_workers=1,
            iterations=flow.iterations,
            converged=True,
            disagreements=0,
            cut_value=flow.flow_value,
            dual_value=flow.flow_value,
            partition_summary={"fallback": trail[0]},
            wall_time_s=wall,
        )
        return ShardedSolve(result=result, report=report)

    # ------------------------------------------------------------------

    def _report(
        self, outcome: ShardOutcome, backend_name: str, wall_time_s: float
    ) -> ShardReport:
        max_workers = self.max_workers
        if max_workers is None:
            max_workers = min(outcome.num_shards, _default_max_workers())
        return ShardReport(
            num_shards=outcome.num_shards,
            backend=backend_name,
            executor=self.executor,
            max_workers=max_workers,
            iterations=outcome.iterations,
            converged=outcome.converged,
            disagreements=outcome.disagreements,
            cut_value=outcome.cut_value,
            dual_value=outcome.dual_value,
            bound_trajectory=list(outcome.history),
            shard_rows=list(outcome.shard_stats),
            partition_summary=dict(outcome.partition_summary),
            wall_time_s=wall_time_s,
        )
