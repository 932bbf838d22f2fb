"""Request/response data model of the batched solving service.

One :class:`SolveRequest` describes one max-flow instance and the backend
that should solve it; a batch of requests goes through
:meth:`~repro.service.batch.BatchSolveService.solve_batch` and comes back as
a :class:`BatchReport` holding one :class:`SolveResult` per request (in
request order) plus aggregate throughput/quality statistics.  The report's
:meth:`BatchReport.as_rows` output is plain dict-rows, directly consumable by
:func:`repro.bench.reporting.format_table` and the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..graph.network import FlowNetwork

__all__ = ["SolveRequest", "SolveResult", "BatchReport", "relative_error"]


def relative_error(value: float, reference: Optional[float]) -> Optional[float]:
    """``|value - reference| / |reference|`` under the service conventions.

    ``None`` when no reference is given; a zero reference yields ``0.0``
    for an exactly-zero value and ``inf`` otherwise.  Shared by every
    result-producing path (batch backends, sharded solves) so the error
    semantics can never diverge between services.
    """
    if reference is None:
        return None
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    return abs(value - reference) / abs(reference)


@dataclass
class SolveRequest:
    """One max-flow instance to solve, with backend selection.

    Parameters
    ----------
    network:
        The flow network to solve.
    backend:
        Backend name from the service registry: ``"analog"`` for the paper's
        substrate pipeline, or any classical algorithm registered in
        :data:`repro.flows.registry.ALGORITHMS` (``"dinic"``,
        ``"push-relabel"``, ...).
    options:
        Backend-specific overrides, passed through to the backend's solve
        call (e.g. ``{"vflow_v": 8.0}`` for the analog backend or
        ``{"validate": True}`` for a classical one).
    tag:
        Free-form label echoed into the result (workload name, request id).
    reference_value:
        Known exact optimum; when given, the result carries the relative
        error of the computed flow against it.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import SolveRequest
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 1.0)
    >>> SolveRequest(network=g, backend="dinic", tag="tiny").backend
    'dinic'
    """

    network: FlowNetwork
    backend: str = "analog"
    options: Dict[str, Any] = field(default_factory=dict)
    tag: Optional[str] = None
    reference_value: Optional[float] = None


@dataclass
class SolveResult:
    """Outcome of one :class:`SolveRequest`.

    Attributes
    ----------
    request:
        The originating request (tag, backend and network included).
    flow_value:
        Computed maximum-flow value (``nan`` when the solve failed).
    edge_flows:
        Per-edge-index flow assignment (empty when the solve failed).
    wall_time_s:
        Wall-clock time spent inside the backend for this instance.
    ok:
        ``True`` when the backend returned a result, ``False`` on error.
    error:
        Error description when ``ok`` is ``False``.
    error_type:
        Exception class name behind ``error`` (``"ConvergenceError"``,
        ``"SolveTimeoutError"``, ...), so callers can discriminate failure
        classes without parsing the message.
    degraded:
        ``True`` when a failover policy produced this result on a fallback
        backend rather than the one the request asked for; the request's
        ``backend`` field then names the backend that actually ran.
    failover_trail:
        Human-readable record of every failed attempt a failover made
        before this result (empty without failover).
    cache_hit:
        ``True`` when the analog backend reused a memoized compiled circuit.
    relative_error:
        ``|flow - reference| / reference`` when the request carried a
        ``reference_value``.
    detail:
        The backend's native result object
        (:class:`~repro.flows.base.MaxFlowResult` or
        :class:`~repro.analog.solver.AnalogMaxFlowResult`).
    """

    request: SolveRequest
    flow_value: float = float("nan")
    edge_flows: Dict[int, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    ok: bool = True
    error: Optional[str] = None
    error_type: Optional[str] = None
    degraded: bool = False
    failover_trail: List[str] = field(default_factory=list)
    cache_hit: bool = False
    relative_error: Optional[float] = None
    detail: Any = field(default=None, repr=False)

    @property
    def backend(self) -> str:
        """Name of the backend that produced (or failed to produce) this result."""
        return self.request.backend

    @property
    def tag(self) -> Optional[str]:
        """The request's free-form label."""
        return self.request.tag


@dataclass
class BatchReport:
    """Per-instance results plus aggregate statistics for one batch call.

    Attributes
    ----------
    results:
        One :class:`SolveResult` per request, in request order.
    total_wall_time_s:
        End-to-end wall time of the batch call (includes dispatch overhead).
    max_workers:
        Worker-pool width the batch ran with.
    executor:
        ``"thread"`` or ``"serial"``.
    cache_stats:
        Snapshot of the compiled-circuit cache counters after the batch.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.service import BatchSolveService
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 4.0)
    >>> report = BatchSolveService(max_workers=2).solve_batch([g, g])
    >>> report.num_requests, report.num_ok
    (2, 2)
    >>> [round(r.flow_value, 2) for r in report.results]
    [4.0, 4.0]
    """

    results: List[SolveResult] = field(default_factory=list)
    total_wall_time_s: float = 0.0
    max_workers: int = 1
    executor: str = "thread"
    cache_stats: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def num_requests(self) -> int:
        """Number of requests in the batch."""
        return len(self.results)

    @property
    def num_ok(self) -> int:
        """Number of requests that solved successfully."""
        return sum(1 for r in self.results if r.ok)

    @property
    def num_failed(self) -> int:
        """Number of requests that errored."""
        return self.num_requests - self.num_ok

    @property
    def num_degraded(self) -> int:
        """Number of requests answered by a fallback backend."""
        return sum(1 for r in self.results if r.degraded)

    def error_counts(self) -> Dict[str, int]:
        """Failed requests per exception class name (typed error entries)."""
        counts: Dict[str, int] = {}
        for result in self.results:
            if not result.ok:
                key = result.error_type or "unknown"
                counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def solve_time_total_s(self) -> float:
        """Sum of per-instance backend times (CPU-side work, not wall time)."""
        return sum(r.wall_time_s for r in self.results)

    @property
    def solve_time_max_s(self) -> float:
        """Slowest single instance (the batch's critical path)."""
        return max((r.wall_time_s for r in self.results), default=0.0)

    @property
    def speedup(self) -> float:
        """Parallel speedup: summed instance time over batch wall time."""
        if self.total_wall_time_s <= 0:
            return 1.0
        return self.solve_time_total_s / self.total_wall_time_s

    def backend_counts(self) -> Dict[str, int]:
        """Number of requests per backend name."""
        counts: Dict[str, int] = {}
        for result in self.results:
            counts[result.backend] = counts.get(result.backend, 0) + 1
        return counts

    def worst_relative_error(self) -> Optional[float]:
        """Largest relative error among results with a reference value."""
        errors = [r.relative_error for r in self.results if r.relative_error is not None]
        return max(errors) if errors else None

    def by_tag(self, tag: Optional[str]) -> List[SolveResult]:
        """Every result whose request carried ``tag``."""
        return [r for r in self.results if r.tag == tag]

    def summary(self) -> Dict[str, object]:
        """Aggregate statistics as one flat dictionary."""
        return {
            "requests": self.num_requests,
            "ok": self.num_ok,
            "failed": self.num_failed,
            "degraded": self.num_degraded,
            "errors": self.error_counts(),
            "backends": self.backend_counts(),
            "wall_time_s": self.total_wall_time_s,
            "solve_time_total_s": self.solve_time_total_s,
            "solve_time_max_s": self.solve_time_max_s,
            "speedup": self.speedup,
            "worst_relative_error": self.worst_relative_error(),
            "executor": self.executor,
            "max_workers": self.max_workers,
            "cache": dict(self.cache_stats),
        }

    def telemetry(self) -> Dict[str, object]:
        """The unified ``repro.telemetry/v1`` document for this batch.

        Same shape as every other service's ``telemetry()`` — the batch
        ``summary()`` plus the compiled-circuit cache statistics, the
        process metrics snapshot, and the embedded span tree under
        ``trace`` (see :mod:`repro.obs.telemetry`).
        """
        from ..obs.telemetry import build_telemetry

        return build_telemetry("batch", self.summary(), cache=self.cache_stats)

    # ------------------------------------------------------------------
    # Benchmark-harness interoperability
    # ------------------------------------------------------------------

    def as_rows(self) -> List[Dict[str, object]]:
        """Per-instance dict rows for :func:`repro.bench.reporting.format_table`."""
        rows: List[Dict[str, object]] = []
        for i, result in enumerate(self.results):
            network = result.request.network
            row: Dict[str, object] = {
                "#": i,
                "tag": result.tag if result.tag is not None else "",
                "backend": result.backend,
                "|V|": network.num_vertices,
                "|E|": network.num_edges,
                "flow": "" if math.isnan(result.flow_value) else round(result.flow_value, 4),
                "time (s)": f"{result.wall_time_s:.3e}",
                "cache": "hit" if result.cache_hit else "",
                "status": (
                    ("degraded" if result.degraded else "ok")
                    if result.ok
                    else f"error: {result.error}"
                ),
            }
            if result.relative_error is not None:
                row["rel.err"] = f"{result.relative_error:.2%}"
            rows.append(row)
        return rows

    def format(self, title: Optional[str] = None) -> str:
        """Aligned ASCII table of the per-instance rows plus a summary line."""
        from ..bench.reporting import format_table

        table = format_table(self.as_rows(), title=title)
        summary = self.summary()
        footer = (
            f"{summary['ok']}/{summary['requests']} ok in {summary['wall_time_s']:.3f} s "
            f"({summary['executor']}, {summary['max_workers']} workers, "
            f"speedup {summary['speedup']:.1f}x, "
            f"cache {summary['cache'].get('hits', 0)} hits / "
            f"{summary['cache'].get('misses', 0)} misses / "
            f"{summary['cache'].get('evictions', 0)} evictions)"
        )
        return table + "\n" + footer
