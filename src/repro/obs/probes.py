"""Typed event probes at the sites that already count things.

Each probe is a named function with a fixed event name, called from the
one place in the codebase where that event happens — solver inner loops
(kernel discharge sweeps, Dinic phases, incremental repairs, DC diode
iterations, shard subgradient iterations) and resilience transitions
(retry attempts, breaker state changes, failover hops, fault
injections).  A probe is a *counter emission*, nothing more: span
attribution is handled separately via ``annotate_span`` so the two can
be enabled/inspected independently of call order.

Every probe funnels through :func:`emit`, whose first action is reading
the tracing enable flag — the disabled fast path is one module-attribute
read and a return, cheap enough for the kernel's per-sweep loop (the
``obs`` perf suite gates this at <2 % total service overhead).
"""

from __future__ import annotations

from . import trace
from .metrics import get_registry

__all__ = [
    "EVENT_BREAKER_TRANSITION",
    "EVENT_CACHE_HIT",
    "EVENT_COALESCE_HIT",
    "EVENT_DC_ITERATION",
    "EVENT_DINIC_PHASE",
    "EVENT_FAILOVER_HOP",
    "EVENT_FAULT_INJECTED",
    "EVENT_INCREMENTAL_COLD",
    "EVENT_INCREMENTAL_REPAIR",
    "EVENT_KERNEL_SWEEP",
    "EVENT_REQUEST",
    "EVENT_REQUEST_SHED",
    "EVENT_RETRY_ATTEMPT",
    "EVENT_SHARD_ITERATION",
    "EVENT_SHARD_SOLVE",
    "EVENT_SOLVE",
    "EVENT_SOLVE_ERROR",
    "EVENT_STREAMING_PUSH",
    "METRIC_QUEUE_DEPTH",
    "METRIC_REQUEST_SECONDS",
    "METRIC_SOLVE_SECONDS",
    "emit",
]

# Solver inner loops -------------------------------------------------------
EVENT_KERNEL_SWEEP = "solver.kernel.sweeps"
EVENT_DINIC_PHASE = "solver.dinic.phases"
EVENT_INCREMENTAL_REPAIR = "solver.incremental.repairs"
EVENT_INCREMENTAL_COLD = "solver.incremental.cold_solves"
EVENT_DC_ITERATION = "solver.dc.iterations"
EVENT_SHARD_ITERATION = "solver.shard.iterations"

# Service layer ------------------------------------------------------------
EVENT_SOLVE = "service.solves"
EVENT_SOLVE_ERROR = "service.solve_errors"
EVENT_CACHE_HIT = "service.cache_hits"
EVENT_SHARD_SOLVE = "service.shard_solves"
EVENT_STREAMING_PUSH = "service.streaming_pushes"

# Resilience transitions ---------------------------------------------------
EVENT_RETRY_ATTEMPT = "resilience.retry_attempts"
EVENT_BREAKER_TRANSITION = "resilience.breaker_transitions"
EVENT_FAILOVER_HOP = "resilience.failover_hops"
EVENT_FAULT_INJECTED = "resilience.faults_injected"

# Serving front door (repro.service.server) --------------------------------
EVENT_REQUEST = "service.requests"
EVENT_REQUEST_SHED = "service.request_sheds"
EVENT_COALESCE_HIT = "service.coalesce_hits"

#: Per-backend solve-latency histogram (a histogram name, not an event —
#: observed via :func:`solve_timed`).
METRIC_SOLVE_SECONDS = "service.solve.seconds"

#: End-to-end request latency histogram of the async front door (admission
#: through response, queueing included) — observed via :func:`request_timed`.
METRIC_REQUEST_SECONDS = "service.request.seconds"

#: Pending-request gauge of the async front door: the unlabelled key is the
#: global queue depth, per-tenant keys carry a ``tenant`` label.
METRIC_QUEUE_DEPTH = "service.queue.depth"

def emit(event: str, amount: float = 1.0, **labels: object) -> None:
    """Count ``event`` in the process registry; no-op when obs is off.

    The enabled check comes first so disabled call sites pay only the
    flag read — label dicts built by ``**labels`` at the *call site* are
    still constructed, which is why hot-loop probes below take no labels.
    """
    if not trace._ENABLED:
        return
    get_registry().counter(event, amount, **labels)


# -- solver inner loops (label-free: these sit inside hot loops) -----------

def kernel_sweep() -> None:
    """One discharge sweep of the flat-array kernel."""
    emit(EVENT_KERNEL_SWEEP)


def dinic_phase() -> None:
    """One blocking-flow phase of the reference Dinic."""
    emit(EVENT_DINIC_PHASE)


def dc_iteration() -> None:
    """One diode-linearisation iteration of the DC operating point."""
    emit(EVENT_DC_ITERATION)


def shard_iteration() -> None:
    """One subgradient iteration of the shard coordinator."""
    emit(EVENT_SHARD_ITERATION)


# -- per-solve events (labels are fine at solve granularity) ---------------

def incremental_repair(algorithm: str) -> None:
    """A warm incremental repair reused the previous flow."""
    emit(EVENT_INCREMENTAL_REPAIR, algorithm=algorithm)


def incremental_cold(algorithm: str) -> None:
    """An incremental apply fell back to a cold from-scratch solve."""
    emit(EVENT_INCREMENTAL_COLD, algorithm=algorithm)


def solve_finished(backend: str, cache_hit: bool) -> None:
    """A service backend completed a solve (typed-failure-free)."""
    emit(EVENT_SOLVE, backend=backend)
    if cache_hit:
        emit(EVENT_CACHE_HIT, backend=backend)


def solve_error(backend: str, error_type: str) -> None:
    """A service backend converted an exception to a typed failure."""
    emit(EVENT_SOLVE_ERROR, backend=backend, error_type=error_type)


def solve_timed(backend: str, seconds: float) -> None:
    """Record one solve's wall time into the per-backend latency histogram.

    The span histograms key on span name only, so this backend-labelled
    series is the one place per-backend solve latency is kept.
    """
    if not trace._ENABLED:
        return
    get_registry().observe(METRIC_SOLVE_SECONDS, seconds, backend=backend)


def shard_solve(backend: str, warm: bool) -> None:
    """One per-shard subproblem solve (warm = no cold solve ran).

    Each shard re-solves through its own streaming session: after the
    shard's opening solve, every shard solve whose multipliers changed
    also records a ``streaming.push`` span and event
    (:func:`streaming_push`) under its ``shard.solve`` span.
    """
    emit(EVENT_SHARD_SOLVE, backend=backend, warm=warm)


def streaming_push(backend: str, warm: bool) -> None:
    """One streaming revision re-solved (warm = incremental repair path).

    Shard solves push through a session too, so these events also count
    the re-solves of ``"sharded:<engine>"`` requests (see
    :func:`shard_solve`).  A push that changes nothing runs no solver and
    records neither this event nor its span.
    """
    emit(EVENT_STREAMING_PUSH, backend=backend, warm=warm)


# -- serving front door -----------------------------------------------------

def request_admitted(tenant: str, backend: str) -> None:
    """The async front door admitted one request into its queue."""
    emit(EVENT_REQUEST, tenant=tenant, backend=backend)


def request_shed(tenant: str, reason: str) -> None:
    """Admission control rejected or evicted one request (503-style)."""
    emit(EVENT_REQUEST_SHED, tenant=tenant, reason=reason)


def coalesce_hit(backend: str) -> None:
    """A request joined an identical in-flight solve instead of running."""
    emit(EVENT_COALESCE_HIT, backend=backend)


def request_timed(backend: str, status: int, seconds: float) -> None:
    """Record one front-door request's end-to-end latency (queueing included).

    The serving counterpart of :func:`solve_timed`: ``service.request.seconds``
    measures what a caller waits, queueing included, while
    ``service.solve.seconds`` keeps measuring backend time alone.
    """
    if not trace._ENABLED:
        return
    get_registry().observe(
        METRIC_REQUEST_SECONDS, seconds, backend=backend, status=status
    )


def queue_depth(depth: int, tenant: str = "") -> None:
    """Set the front door's pending-request gauge (global or per-tenant)."""
    if not trace._ENABLED:
        return
    if tenant:
        get_registry().gauge(METRIC_QUEUE_DEPTH, depth, tenant=tenant)
    else:
        get_registry().gauge(METRIC_QUEUE_DEPTH, depth)


# -- resilience transitions ------------------------------------------------

def retry_attempt(target: str, attempt: int) -> None:
    """A retry policy is re-running ``target`` (attempt >= 1 failed)."""
    emit(EVENT_RETRY_ATTEMPT, target=target or "anonymous")
    trace.annotate_span(retry_attempts=attempt)


def breaker_transition(name: str, state: str) -> None:
    """A circuit breaker changed state (open / half-open / closed)."""
    emit(EVENT_BREAKER_TRANSITION, breaker=name or "anonymous", state=state)


def failover_hop(backend: str, outcome: str) -> None:
    """The failover chain moved past ``backend`` (``outcome`` = why)."""
    emit(EVENT_FAILOVER_HOP, backend=backend, outcome=outcome)


def fault_injected(site: str, backend: str, kind: str) -> None:
    """An injected fault actually fired at a hook site."""
    emit(EVENT_FAULT_INJECTED, site=site, backend=backend, kind=kind)
