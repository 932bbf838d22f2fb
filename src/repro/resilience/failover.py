"""Declarative degradation chains with validation-gated fallback.

When a backend fails — injected fault, genuine convergence failure, open
circuit breaker — the request does not fail with it: it *degrades* along a
declared chain of strictly-more-conservative backends::

    analog           →  kernel  →  dinic
    kernel           →  dinic
    dinic            →  push-relabel
    sharded:<engine> →  kernel  →  dinic     (unsharded cold solves)
    warm repair      →  cold re-solve        (flows/incremental.py)

Each name is one engine (see :mod:`repro.flows.registry`), so every hop
runs a different implementation from the one that just failed: the
flat-array ``kernel`` falls back to the reference ``dinic``.

The crucial invariant is that **degradation can never silently return a
wrong answer**: a fallback result is accepted only after
:func:`certify_flow_result` re-validates it with the existing machinery —
capacity/conservation feasibility via
:meth:`~repro.graph.network.FlowNetwork.check_flow`, flow-value consistency,
and (for exact classical backends) the strong-duality certificate that the
min-cut extracted from the flow has the same value.  An analog result is
held to the feasibility gate with the substrate tolerance, which is exactly
what catches an injected readout corruption: corruptions inflate, and an
inflated flow violates capacity on every saturated min-cut edge.

Timeouts are terminal: a :class:`~repro.errors.SolveTimeoutError` aborts
the whole chain, because the budget that produced it is shared by any
fallback that would follow.

Backend health has one signal: the per-backend
:class:`~repro.resilience.policy.CircuitBreaker` a :class:`FailoverPolicy`
keeps, judged in one place, :meth:`FailoverPolicy.healthy`.  Every failed
attempt counts against it — an error, a timeout, a result that fails
certification — and the chain walk skips a stage whose breaker is open,
except the last, which is always attempted: degraded service beats no
service.  The server's deadline router reads the same verdict before it
sends a tight request to ``"analog"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from ..errors import (
    BackendUnavailableError,
    InfeasibleFlowError,
    ReproError,
    SolveTimeoutError,
)
from ..obs import probes
from ..obs.trace import annotate_span
from .policy import CircuitBreaker, RetryPolicy, active_deadline

__all__ = [
    "DEGRADATION_CHAINS",
    "degradation_chain",
    "certify_flow_result",
    "FailoverPolicy",
    "solve_with_failover",
]

#: Built-in degradation chains, primary backend first.  Backends without an
#: entry degrade to the reference Dinic implementation.
DEGRADATION_CHAINS: Dict[str, Tuple[str, ...]] = {
    "analog": ("analog", "kernel", "dinic"),
    "kernel": ("kernel", "dinic"),
    "dinic": ("dinic", "push-relabel"),
    "push-relabel": ("push-relabel", "dinic"),
}

#: Relative tolerance for exact classical backends (feasibility + duality).
EXACT_RTOL = 1e-9

#: Relative tolerance for analog feasibility (substrate non-ideality head-
#: room; far below the default injected corruption of 25 %).
ANALOG_RTOL = 5e-2


def degradation_chain(backend: str) -> Tuple[str, ...]:
    """The declared chain for ``backend`` (itself first, fallbacks after).

    Every ``"sharded:<engine>"`` backend degrades to unsharded cold exact
    solves: :data:`~repro.flows.registry.DEFAULT_EXACT_ALGORITHM`, then
    the reference ``dinic``.
    """
    chain = DEGRADATION_CHAINS.get(backend)
    if chain is not None:
        return chain
    if backend.startswith("sharded:"):
        # Imported late: repro.flows imports repro.resilience.
        from ..flows.registry import DEFAULT_EXACT_ALGORITHM

        return (backend, DEFAULT_EXACT_ALGORITHM, "dinic")
    return (backend, "dinic")


def certify_flow_result(network, flow_value, edge_flows, *, exact=True) -> None:
    """Validate a flow against ``network`` before it may leave a failover.

    Checks, in order:

    1. capacity/conservation feasibility (``check_flow``) at ``EXACT_RTOL``
       (classical) or ``ANALOG_RTOL`` (analog) relative to the flow scale;
    2. the reported value matches the net source outflow of ``edge_flows``;
    3. for ``exact`` results, strong duality: the min cut extracted from the
       flow has the same value, so the flow is not merely feasible but
       *maximum*.

    Raises :class:`~repro.errors.InfeasibleFlowError` on any violation.
    """
    from ..flows.base import MaxFlowResult
    from ..flows.mincut import min_cut_from_flow

    rtol = EXACT_RTOL if exact else ANALOG_RTOL
    scale = max(1.0, abs(flow_value))
    tol = rtol * scale
    problems = network.check_flow(edge_flows, capacity_tol=tol, conservation_tol=tol)
    if problems:
        head = "; ".join(problems[:3])
        raise InfeasibleFlowError(
            f"fallback validation: infeasible flow ({len(problems)} violations: {head})"
        )
    net_value = network.flow_value(edge_flows)
    if abs(net_value - flow_value) > tol:
        raise InfeasibleFlowError(
            f"fallback validation: reported value {flow_value!r} does not match "
            f"edge flows (net source outflow {net_value!r})"
        )
    if exact:
        shadow = MaxFlowResult(
            flow_value=flow_value, edge_flows=dict(edge_flows), algorithm="certify"
        )
        cut = min_cut_from_flow(network, shadow)
        if network.sink in cut.source_side:
            raise InfeasibleFlowError(
                "fallback validation: flow is not maximum (sink reachable in residual)"
            )
        if abs(cut.cut_value - flow_value) > tol:
            raise InfeasibleFlowError(
                f"fallback validation: duality gap |{cut.cut_value!r} - "
                f"{flow_value!r}| exceeds {tol!r}"
            )


@dataclass
class FailoverPolicy:
    """How one service degrades: retries, breakers, validation.

    Chains come from :func:`degradation_chain`.  One policy may be shared
    by threads: the server's workers and the batch service's thread
    executor record outcomes on it while the server's router reads it.

    Parameters
    ----------
    retry:
        Per-stage retry policy (2 attempts, no backoff by default — solver
        failures on identical inputs are deterministic unless a fault plan
        with a bounded ``times`` is in play, which is exactly when a second
        attempt helps).
    validate:
        Gate every accepted result through :func:`certify_flow_result`.
        Primary *exact* backends skip the gate (their own invariants and the
        differential fuzz suite cover them); analog results and every
        fallback result are always validated when this is on.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=2, base_delay_s=0.0)
    )
    validate: bool = True
    _breakers: Dict[str, CircuitBreaker] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def healthy(self, backend: str) -> bool:
        """Whether ``backend`` may take traffic: its breaker is not open.

        The one place a backend's health is decided.  An open breaker turns
        half-open once its cooldown has passed, and is then healthy again
        until the probe's outcome lands.
        """
        return self.breaker_for(backend).allow()

    def breaker_for(self, backend: str) -> CircuitBreaker:
        """This policy's breaker for ``backend``, created closed on first use.

        Every breaker has :class:`~repro.resilience.policy.CircuitBreaker`'s
        defaults: it opens at 4 failures in its last 8 outcomes and lets
        calls through again 30 s later.  ``setdefault`` makes the insert
        atomic, so threads racing to create one backend's breaker all get
        the same one.
        """
        breaker = self._breakers.get(backend)
        if breaker is None:
            breaker = self._breakers.setdefault(backend, CircuitBreaker(name=backend))
        return breaker


def solve_with_failover(
    request,
    policy: FailoverPolicy,
    make_backend: Callable[[str], "object"],
):
    """Solve ``request`` along its degradation chain, validating fallbacks.

    ``make_backend(name)`` supplies a ready
    :class:`~repro.service.backends.SolveBackend`; the caller (the batch
    service) injects its shared analog solver and compiled-circuit cache.
    Every stage runs under the caller's ambient deadline: the batch
    service opens a request's ``deadline_s`` once around the whole walk.

    Returns a :class:`~repro.service.api.SolveResult`.  On success the
    result's request carries the backend that actually ran, ``degraded``
    marks chain position > 0, and ``failover_trail`` records every failed
    attempt.  When the chain is exhausted the result is ``ok=False`` with
    ``error_type="BackendUnavailableError"`` — still a *typed* failure, per
    the no-silent-wrong-answers contract.
    """
    from ..service.api import SolveResult

    chain = degradation_chain(request.backend)
    last = len(chain) - 1
    trail: List[str] = []
    for stage, name in enumerate(chain):
        deadline = active_deadline()
        if deadline is not None and deadline.expired():
            # The ambient budget (a server deadline, a batch deadline) is
            # already spent: attempting this stage could only time out
            # again, so the walk aborts with the same terminal semantics
            # as an in-solve SolveTimeoutError.
            trail.append(f"{name}: not attempted, deadline expired")
            probes.failover_hop(name, "deadline-expired")
            timeout = SolveTimeoutError(
                f"deadline expired before stage {stage} "
                f"({name!r}) of chain {' -> '.join(chain)}"
            )
            return SolveResult(
                request=request,
                ok=False,
                error=f"{type(timeout).__name__}: {timeout}",
                error_type=type(timeout).__name__,
                failover_trail=trail,
            )
        if stage < last and not policy.healthy(name):
            # The last resort runs whatever its breaker says: degraded
            # service beats no service.
            trail.append(f"{name}: circuit breaker open")
            probes.failover_hop(name, "breaker-open")
            continue
        breaker = policy.breaker_for(name)
        try:
            backend = make_backend(name)
        except ReproError as exc:
            trail.append(f"{name}: {type(exc).__name__}: {exc}")
            probes.failover_hop(name, "backend-unavailable")
            continue
        staged = request if name == request.backend else replace(request, backend=name)
        for attempt in range(1, policy.retry.max_attempts + 1):
            result = backend.solve(staged)
            if result.ok:
                try:
                    if policy.validate and (stage > 0 or name == "analog"):
                        certify_flow_result(
                            staged.network,
                            result.flow_value,
                            result.edge_flows,
                            exact=(name != "analog"),
                        )
                except ReproError as exc:
                    breaker.record_failure()
                    trail.append(f"{name}#{attempt}: {type(exc).__name__}: {exc}")
                    probes.failover_hop(name, "validation-failed")
                else:
                    breaker.record_success()
                    result.degraded = stage > 0
                    result.failover_trail = list(trail)
                    if stage > 0:
                        probes.failover_hop(name, "degraded-accept")
                        annotate_span(
                            failover_stage=stage, failover_backend=name
                        )
                    return result
            else:
                breaker.record_failure()
                trail.append(f"{name}#{attempt}: {result.error}")
                probes.failover_hop(name, "attempt-failed")
                if result.error_type == SolveTimeoutError.__name__:
                    # The expired budget is shared with every fallback.
                    result.failover_trail = list(trail)
                    return result
            if attempt < policy.retry.max_attempts:
                deadline = active_deadline()
                if deadline is not None and deadline.expired():
                    break
                delay = policy.retry.delay_for(attempt)
                if deadline is not None and deadline.remaining() <= delay:
                    break
                if delay > 0.0:
                    policy.retry.sleep(delay)
    exhausted = BackendUnavailableError(
        f"every backend in chain {' -> '.join(chain)} failed"
    )
    return SolveResult(
        request=request,
        ok=False,
        error=f"{exhausted}: " + "; ".join(trail),
        error_type=type(exhausted).__name__,
        failover_trail=trail,
    )
