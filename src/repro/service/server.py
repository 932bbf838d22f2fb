"""Asyncio serving front door: coalescing, admission control, deadline routing.

:class:`AsyncSolveServer` is the layer that absorbs *traffic*: everything
below it (:class:`~repro.service.batch.BatchSolveService` and the backend
registry) solves whatever it is handed, so under duplicate-heavy,
bursty, deadline-bound load the server — not the solvers — must decide
what actually runs.  Four mechanisms, all deterministic under an
injected clock and injectable ``solve_fn`` so every concurrency property
is pinned by ``tests/test_server.py`` without sleeps:

* **Request coalescing.**  :meth:`~AsyncSolveServer.submit` freezes the
  caller's network in place, so it cannot change under a shared solve.
  Concurrent requests with the identical ``(network digest, backend,
  options)`` key share one in-flight solve through a future map; the
  digest is that of the network's cached array view
  (:meth:`~repro.graph.network.FlowNetwork.flat`).  The first arrival
  (the *leader*) occupies a queue slot, later arrivals await the
  leader's shared future and are
  counted via ``service.coalesce_hits``.  Production max-flow traffic is
  many instances of few topologies (the same observation behind the
  compiled-circuit cache), so on a duplicate-heavy workload coalescing
  multiplies throughput (gated at >=2x by ``benchmarks/bench_serving.py``).

* **Admission control and backpressure.**  The queue is bounded globally
  (``max_pending``) and per tenant (``per_tenant_queue``).  On overflow
  the *lowest-priority* queued request is shed — resolved immediately
  with a 503-style :class:`ServerResponse` — unless the incoming request
  is itself lowest, in which case it is rejected instead.  Every shed is
  counted in ``service.request_sheds{tenant=,reason=}`` and queue depths
  are exported as ``service.queue.depth`` gauges.

* **Deadline-aware backend selection.**  A request without an explicit
  backend routes on its deadline: tight budgets
  (``deadline_s <= analog_deadline_s``) go to the fast approximate
  analog backend *while its circuit breaker is closed* (the verdict of
  :meth:`~repro.resilience.failover.FailoverPolicy.healthy` on the
  service's failover policy, the same one the failover chain walk
  reads); an open analog breaker or a loose deadline takes the exact
  classical default, ``DEFAULT_EXACT_ALGORITHM`` (the ``"kernel"``
  engine).  This is the paper's analog-vs-exact latency
  trade-off made into a routing decision, and what is left of the
  deadline just before the solve rides into the solver (``deadline_s`` option → one
  cooperative :func:`~repro.resilience.policy.deadline_scope` around the
  whole failover chain walk, which aborts between stages once the budget
  is spent).

* **One exact lane.**  Every request routed to a classical engine (an
  :data:`~repro.flows.registry.ALGORITHMS` name) runs on one lane, one
  solve at a time: the kernel's compiled core holds the interpreter lock
  for a whole round, and its lockstep core and the other engines are
  interpreter-bound, so two exact solves on two threads only slow each
  other down.  When the lane frees, the worker that takes it runs the
  first queued lane request, in queue order, through its own path
  (service → failover → backend → engine), with its budget re-derived on
  the server clock just before the solve; a request whose budget is spent
  by then answers 504 without running.  The lane's next turn waits until
  the request's callers have their answer, so a caller that submits again
  on receipt is queued for it.  Analog and ``"sharded:*"`` requests stay
  off the lane and run concurrently.

Statuses follow HTTP conventions: 200 served (the result may still be a
typed ``ok=False`` failure-free report), 500 typed solve failure, 503
shed by admission control, 504 deadline expired (in queue or in solve).
"""

from __future__ import annotations

import asyncio
import inspect
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import AlgorithmError, SolveTimeoutError
from ..flows.registry import ALGORITHMS, DEFAULT_EXACT_ALGORITHM
from ..graph.network import FlowNetwork
from ..obs import probes
from .api import SolveRequest, SolveResult
from .batch import BatchSolveService
from .cache import network_signature

__all__ = ["AsyncSolveServer", "ServerResponse"]

#: Response statuses (HTTP-flavoured; see the module docstring).
STATUS_OK = 200
STATUS_FAILED = 500
STATUS_SHED = 503
STATUS_DEADLINE = 504

#: Lanes shared by every request routed to a classical engine.  Eight
#: serve-large kernel solves took 1.34x as long on two threads as on one.
LANES = 1


@dataclass
class ServerResponse:
    """Outcome of one :meth:`AsyncSolveServer.submit` call.

    Attributes
    ----------
    status:
        200 served, 500 typed solve failure, 503 shed, 504 deadline.
    tenant:
        The submitting tenant (echoed back).
    backend:
        The backend the deadline router selected (or the explicit one).
    result:
        The underlying :class:`~repro.service.api.SolveResult` when the
        request reached a backend; ``None`` for shed/expired requests.
    coalesced:
        ``True`` when this request shared another request's in-flight
        solve instead of occupying a queue slot.
    detail:
        Why a non-200 response happened (shed reason, deadline message).
    queued_s:
        Time the winning solve spent queued (server clock).
    wall_time_s:
        End-to-end latency of this submit, admission through response
        (server clock).
    """

    status: int
    tenant: str
    backend: str
    result: Optional[SolveResult] = None
    coalesced: bool = False
    detail: str = ""
    queued_s: float = 0.0
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Served with a successful solve."""
        return self.status == STATUS_OK


class _Shared:
    """One in-flight solve shared by a leader and its coalesced followers.

    ``future`` resolves to an outcome tuple ``(kind, payload)`` with
    ``kind`` in ``{"result", "shed", "deadline"}``; it is resolved exactly
    once, by the worker (or by admission control when the leader is shed),
    and waiters await it through :func:`asyncio.shield` so a cancelled
    caller can never drop it for the others.
    """

    __slots__ = ("future", "queued_s", "waiters", "answered")

    def __init__(self, future: "asyncio.Future") -> None:
        self.future = future
        self.queued_s = 0.0
        self.waiters = 0
        #: Set once no caller is left waiting on ``future``.
        self.answered = asyncio.Event()


class _Pending:
    """One queued (leader) request plus its bookkeeping."""

    __slots__ = (
        "seq", "priority", "tenant", "request", "key",
        "enqueued_at", "deadline_at", "deadline_s", "shared", "shed", "lane",
    )

    def __init__(self, seq, priority, tenant, request, key,
                 enqueued_at, deadline_at, deadline_s, shared) -> None:
        self.seq = seq
        self.priority = priority
        self.tenant = tenant
        self.request = request
        self.key = key
        self.enqueued_at = enqueued_at
        self.deadline_at = deadline_at
        self.deadline_s = deadline_s
        self.shared = shared
        self.shed = False
        #: Routed to a classical engine, so it runs on the exact lane.
        self.lane = request.backend in ALGORITHMS


class AsyncSolveServer:
    """Asyncio front door over the batch solving service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.batch.BatchSolveService` that executes
        admitted requests (a failover-enabled one by default, so degraded
        answers beat shed requests).  Its failover policy's analog breaker
        steers the deadline router, even when ``solve_fn`` replaces the
        service call.
    workers:
        Number of worker tasks draining the priority queue, so the bound
        on requests running at once.  Requests routed to a classical
        engine share one lane whatever this is: one worker at a time runs
        one of them, and the others run analog and ``"sharded:*"``
        requests.
    max_pending:
        Global bound on queued (not yet executing) requests.
    per_tenant_queue:
        Per-tenant bound on queued requests; one noisy tenant cannot
        occupy the whole queue.
    coalesce:
        Share one in-flight solve between identical concurrent requests
        (on by default; the benchmark's control arm turns it off).
    analog_deadline_s:
        Deadline at or under which an auto-routed request prefers the
        analog backend (while its circuit breaker is closed).
    clock:
        Monotonic clock for queueing/latency bookkeeping — injectable so
        the concurrency tests run on a virtual clock.
    solve_fn:
        Override for the service call: ``solve_fn(request) -> SolveResult``,
        sync (run in a thread, as the service call is) or async (awaited
        on the loop).  Tests inject counting/gated fakes here.

    Examples
    --------
    >>> import asyncio
    >>> from repro import FlowNetwork
    >>> from repro.service import AsyncSolveServer
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "t", 3.0)
    >>> async def demo():
    ...     async with AsyncSolveServer(workers=1) as server:
    ...         response = await server.submit(g, backend="kernel", deadline_s=30.0)
    ...         return response.status, round(response.result.flow_value, 2)
    >>> asyncio.run(demo())
    (200, 3.0)
    """

    def __init__(
        self,
        service: Optional[BatchSolveService] = None,
        *,
        workers: int = 4,
        max_pending: int = 64,
        per_tenant_queue: int = 16,
        coalesce: bool = True,
        analog_deadline_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        solve_fn: Optional[Callable[[SolveRequest], Any]] = None,
    ) -> None:
        if workers < 1:
            raise AlgorithmError("workers must be at least 1")
        if max_pending < 1 or per_tenant_queue < 1:
            raise AlgorithmError("queue bounds must be at least 1")
        self.service = service
        self.workers = workers
        self.max_pending = max_pending
        self.per_tenant_queue = per_tenant_queue
        self.coalesce = coalesce
        self.analog_deadline_s = float(analog_deadline_s)
        self._clock = clock
        self._solve_fn = solve_fn
        self._solve_async = inspect.iscoroutinefunction(solve_fn) or (
            inspect.iscoroutinefunction(getattr(solve_fn, "__call__", None))
        )
        self._lanes_busy = 0
        #: Admitted entries not yet taken (shed ones are dropped lazily).
        self._queue: List[_Pending] = []
        self._inflight: Dict[tuple, _Shared] = {}
        self._tasks: List["asyncio.Task"] = []
        self._work_available: Optional[asyncio.Event] = None
        self._seq = 0
        self._queued = 0
        self._tenant_counts: Dict[str, int] = {}
        self._closed = False
        self._started = False
        self._stats = {
            "admitted": 0, "coalesced": 0, "shed": 0,
            "served": 0, "failed": 0, "expired": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (idempotent; needs a running loop)."""
        if self._started:
            return
        if self.service is None and self._solve_fn is None:
            self.service = BatchSolveService(failover=True)
        self._work_available = asyncio.Event()
        self._tasks = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.workers)
        ]
        self._started = True

    async def aclose(self) -> None:
        """Drain the queue, stop the workers, resolve everything pending."""
        self._closed = True
        if not self._started:
            return
        self._work_available.set()
        await asyncio.gather(*self._tasks)
        # Anything still queued after the workers exited (they drain the
        # queue before returning, so this is belt-and-braces) is shed so no
        # caller is ever left awaiting an unresolved future.
        for entry in self._queue:
            if not entry.shed:
                self._shed_entry(entry, "server-closed")
        self._queue.clear()

    async def __aenter__(self) -> "AsyncSolveServer":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- submission ----------------------------------------------------

    async def submit(
        self,
        network: FlowNetwork,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: Optional[float] = None,
        backend: Optional[str] = None,
        tag: Optional[str] = None,
        **options: Any,
    ) -> ServerResponse:
        """Admit, route and solve one request; never raises on overload.

        ``network`` is frozen in place
        (:meth:`~repro.graph.network.FlowNetwork.freeze`) before it is
        keyed, so later edits raise; edit a ``snapshot()`` and submit that
        instead.  Higher ``priority`` values win queue slots under
        overflow.  An omitted ``backend`` engages the deadline router (see
        the class docstring); an explicit one is honoured as-is.  ``deadline_s``
        bounds the whole journey: requests still waiting past it answer
        504, and the budget left just before the request's own solve
        rides into the solver as its ``deadline_s`` option, bounding every
        failover attempt together.
        """
        if self._closed:
            raise AlgorithmError("server is closed")
        if not self._started:
            self.start()
        start = self._clock()
        routed = self._route(backend, deadline_s)
        opts = dict(options)
        if deadline_s is not None:
            opts["deadline_s"] = float(deadline_s)
        # Frozen before keying: a caller can no longer change a network
        # under a solve that another caller shares.
        network.freeze()
        request = SolveRequest(
            network=network, backend=routed, options=opts, tag=tag
        )
        key = (
            network_signature(network),
            routed,
            repr(sorted(opts.items())),
        )

        shared = self._inflight.get(key) if self.coalesce else None
        if shared is not None:
            probes.coalesce_hit(routed)
            self._stats["coalesced"] += 1
            return await self._await_outcome(
                shared, tenant, routed, start, coalesced=True
            )

        admitted, victim, reason = self._admission_verdict(tenant, priority)
        if not admitted:
            probes.request_shed(tenant, reason)
            self._stats["shed"] += 1
            response = ServerResponse(
                status=STATUS_SHED, tenant=tenant, backend=routed,
                detail=reason, wall_time_s=self._clock() - start,
            )
            probes.request_timed(routed, STATUS_SHED, response.wall_time_s)
            return response
        if victim is not None:
            self._shed_entry(victim, reason)

        loop = asyncio.get_running_loop()
        shared = _Shared(loop.create_future())
        if self.coalesce:
            self._inflight[key] = shared
        self._seq += 1
        now = self._clock()
        entry = _Pending(
            seq=self._seq, priority=priority, tenant=tenant,
            request=request, key=key, enqueued_at=now,
            deadline_at=(None if deadline_s is None else now + deadline_s),
            deadline_s=deadline_s, shared=shared,
        )
        self._queue.append(entry)
        self._queued += 1
        self._tenant_counts[tenant] = self._tenant_counts.get(tenant, 0) + 1
        self._export_queue_gauges(tenant)
        probes.request_admitted(tenant, routed)
        self._stats["admitted"] += 1
        self._work_available.set()
        return await self._await_outcome(
            shared, tenant, routed, start, coalesced=False
        )

    async def _await_outcome(
        self, shared: _Shared, tenant: str, backend: str,
        start: float, coalesced: bool,
    ) -> ServerResponse:
        shared.waiters += 1
        try:
            # shield: cancelling one waiter must not cancel the shared
            # solve out from under the other waiters (or the leader).
            kind, payload = await asyncio.shield(shared.future)
        finally:
            shared.waiters -= 1
            if not shared.waiters:
                shared.answered.set()
        wall = self._clock() - start
        if kind == "result":
            result: SolveResult = payload
            if result.ok:
                status = STATUS_OK
                self._stats["served"] += 1
            elif result.error_type == SolveTimeoutError.__name__:
                status = STATUS_DEADLINE
                self._stats["expired"] += 1
            else:
                status = STATUS_FAILED
                self._stats["failed"] += 1
            response = ServerResponse(
                status=status, tenant=tenant, backend=backend,
                result=result, coalesced=coalesced,
                detail=result.error or "",
                queued_s=shared.queued_s, wall_time_s=wall,
            )
        elif kind == "deadline":
            self._stats["expired"] += 1
            response = ServerResponse(
                status=STATUS_DEADLINE, tenant=tenant, backend=backend,
                coalesced=coalesced, detail=payload,
                queued_s=shared.queued_s, wall_time_s=wall,
            )
        else:  # "shed"
            self._stats["shed"] += 1
            response = ServerResponse(
                status=STATUS_SHED, tenant=tenant, backend=backend,
                coalesced=coalesced, detail=payload,
                queued_s=shared.queued_s, wall_time_s=wall,
            )
        probes.request_timed(backend, response.status, wall)
        return response

    # -- routing and admission -----------------------------------------

    def _route(self, backend: Optional[str], deadline_s: Optional[float]) -> str:
        """Pick a backend: explicit wins, else deadline + analog's breaker.

        Without a failover policy (a ``solve_fn`` alone, or a service
        built with ``failover=None``) nothing records analog's health, so
        a tight deadline always routes analog.
        """
        if backend is not None:
            return backend
        if deadline_s is not None and deadline_s <= self.analog_deadline_s:
            policy = self.service.failover if self.service is not None else None
            if policy is None or policy.healthy("analog"):
                return "analog"
        return DEFAULT_EXACT_ALGORITHM

    def _admission_verdict(
        self, tenant: str, priority: int
    ) -> Tuple[bool, Optional[_Pending], str]:
        """Decide admit/shed: ``(admitted, victim_to_shed, reason)``."""
        if self._tenant_counts.get(tenant, 0) >= self.per_tenant_queue:
            pool = [
                e for e in self._queue
                if not e.shed and e.tenant == tenant
            ]
            reason = "tenant-queue-full"
        elif self._queued >= self.max_pending:
            pool = [e for e in self._queue if not e.shed]
            reason = "queue-full"
        else:
            return True, None, ""
        if not pool:  # pragma: no cover - counts and queue always agree
            return True, None, ""
        # Shed the lowest priority; among equals the newest arrival loses
        # (oldest requests have waited longest and are closest to service).
        victim = min(pool, key=lambda e: (e.priority, -e.seq))
        if priority > victim.priority:
            return True, victim, reason
        return False, None, reason

    def _shed_entry(self, entry: _Pending, reason: str) -> None:
        """Evict a queued entry: resolve its future 503, free its slot."""
        entry.shed = True
        self._queued -= 1
        self._tenant_counts[entry.tenant] -= 1
        probes.request_shed(entry.tenant, reason)
        self._export_queue_gauges(entry.tenant)
        self._resolve(entry, ("shed", reason))

    def _resolve(self, entry: _Pending, outcome: Tuple[str, Any]) -> None:
        """Unregister ``entry``'s solve, then resolve its shared future.

        Unregistering first means a submit racing in after this point
        starts a fresh solve instead of joining a finished future.
        """
        if self._inflight.get(entry.key) is entry.shared:
            del self._inflight[entry.key]
        if not entry.shared.future.done():
            entry.shared.future.set_result(outcome)

    def _export_queue_gauges(self, tenant: str) -> None:
        probes.queue_depth(self._queued)
        probes.queue_depth(self._tenant_counts.get(tenant, 0), tenant=tenant)

    # -- execution -----------------------------------------------------

    def _take(self) -> Optional[_Pending]:
        """Dequeue the next entry to run; ``None`` when nothing may run now.

        The first live entry in queue order that may start: lane entries
        wait while every lane is busy, so an analog request queued behind
        them still starts.
        """
        lane_free = self._lanes_busy < LANES
        queue = sorted(
            (e for e in self._queue if not e.shed),
            key=lambda e: (-e.priority, e.seq),
        )
        entry = next((e for e in queue if lane_free or not e.lane), None)
        if entry is None:
            return None
        if entry.lane:
            self._lanes_busy += 1
        self._queue = [e for e in queue if e is not entry]
        self._queued -= 1
        self._tenant_counts[entry.tenant] -= 1
        self._export_queue_gauges(entry.tenant)
        return entry

    async def _worker_loop(self) -> None:
        while True:
            entry = self._take()
            if entry is None:
                if self._closed:
                    return  # a lane holder drains what waits for the lane
                # Single-threaded event loop: no submit can interleave
                # between the failed take and this clear, so no lost wakeup.
                self._work_available.clear()
                await self._work_available.wait()
                continue
            await self._run(entry)

    async def _run(self, entry: _Pending) -> None:
        """Run one dequeued entry; a lane entry holds the lane until answered."""
        entry.shared.queued_s = self._clock() - entry.enqueued_at
        try:
            await self._run_entry(entry)
            if entry.lane:
                # The lane's next turn waits for the callers to take their
                # answer, so one that submits again on receipt is queued.
                await entry.shared.answered.wait()
        except asyncio.CancelledError:
            self._resolve(entry, ("shed", "server-closed"))
            raise
        finally:
            if entry.lane:
                self._lanes_busy -= 1
                self._work_available.set()

    async def _run_entry(self, entry: _Pending) -> None:
        request = entry.request
        if entry.deadline_at is not None:
            # The solver gets what is left of the budget just before its
            # own solve, on the server's clock, not a fresh copy of the
            # whole budget nor what was left when it was queued.
            left = entry.deadline_at - self._clock()
            if left <= 0.0:
                waited = self._clock() - entry.enqueued_at
                self._resolve(entry, (
                    "deadline",
                    f"deadline of {entry.deadline_s:.4g} s expired after "
                    f"{waited:.4g} s waiting",
                ))
                return
            request = replace(
                request, options={**request.options, "deadline_s": left}
            )
        try:
            result = await self._invoke(request)
        except Exception as exc:  # noqa: BLE001 - front door never raises
            result = SolveResult(
                request=request, ok=False,
                error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
            )
        self._resolve(entry, ("result", result))

    async def _invoke(self, request: SolveRequest) -> SolveResult:
        if self._solve_async:
            return await self._solve_fn(request)
        loop = asyncio.get_running_loop()
        result = await loop.run_in_executor(None, self._solve_sync, request)
        if inspect.isawaitable(result):  # a sync wrapper of an async fn
            result = await result
        return result

    def _solve_sync(self, request: SolveRequest) -> SolveResult:
        # The deadline travels as the plain ``deadline_s`` option, which
        # the batch service re-opens in this thread.
        if self._solve_fn is not None:
            return self._solve_fn(request)
        return self.service.solve(
            request.network, backend=request.backend, **request.options
        )

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counters plus live queue/inflight depths (one flat dict)."""
        return {
            **self._stats,
            "queue_depth": self._queued,
            "inflight": len(self._inflight),
            # Callers currently awaiting a shared in-flight future — the
            # deterministic tests synchronize on this instead of sleeping.
            "waiting": sum(s.waiters for s in self._inflight.values()),
        }
