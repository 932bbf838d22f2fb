"""The batched solving service.

:class:`BatchSolveService` is the front door for heavy traffic: it accepts a
batch of flow networks (or fully-specified
:class:`~repro.service.api.SolveRequest` objects mixing analog, classical
and ``"sharded:<engine>"`` backends), fans the instances out over a worker
pool, memoizes compiled analog circuits across the batch, and returns one
:class:`~repro.service.api.BatchReport` with per-instance results and
aggregate statistics.

Worker pools
------------
``executor="thread"`` (default) runs instances on a thread pool.  The MNA
hot path spends its time inside scipy's LAPACK/SuperLU calls, which release
the GIL, so threads overlap well and share one compiled-circuit cache.
``executor="serial"`` runs in-line, which is the reference behaviour for
debugging.  Under either, every request takes the same in-process path —
:meth:`BatchSolveService.solve` included — so backend-name checks,
deadlines, failover validation and trace context never depend on where a
request ran.  A sharded request fans its shard solves out over the same
executor kind and width.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, Optional, Union

from ..analog.solver import AnalogMaxFlowSolver
from ..errors import AlgorithmError
from ..graph.network import FlowNetwork
from ..obs.trace import current_span, span, span_scope
from ..resilience.failover import FailoverPolicy, solve_with_failover
from ..resilience.policy import Deadline, active_deadline, deadline_scope
from .api import BatchReport, SolveRequest, SolveResult
from .backends import SolveBackend, create_backend
from .cache import CompiledCircuitCache, network_signature

__all__ = ["BatchSolveService", "ParallelMap"]

RequestLike = Union[SolveRequest, FlowNetwork]

#: Worker-pool kinds understood by every service executor layer.
EXECUTORS = ("thread", "serial")


def _default_max_workers() -> int:
    return min(8, os.cpu_count() or 1)


def _with_context(fn, describe):
    """Wrap ``fn(item)`` as ``call((index, item))`` that names failing items.

    An exception escaping a pool worker otherwise surfaces with a bare
    traceback and no hint of *which* item it was processing; the wrapper
    notes the item index plus whatever ``describe(item)`` reports (the batch
    service uses backend name, tag and topology signature).
    """

    def call(indexed):
        index, item = indexed
        try:
            return fn(item)
        except Exception as exc:
            detail = ""
            if describe is not None:
                try:
                    detail = f" ({describe(item)})"
                except Exception:  # noqa: BLE001 - context must never mask
                    detail = ""
            note = f"while processing item {index}{detail}"
            if hasattr(exc, "add_note"):  # Python >= 3.11
                exc.add_note(note)
            else:  # pragma: no cover - pre-3.11 fallback
                exc.args = tuple(exc.args) + (note,)
            raise

    return call


def _describe_request(request: SolveRequest) -> str:
    """Context line for one batch item."""
    signature = network_signature(request.network)[:12]
    return f"backend={request.backend!r} tag={request.tag!r} network={signature}"


class ParallelMap:
    """Reusable thread/serial mapper — the service executor layer.

    One instance owns (at most) one thread pool, created lazily on the first
    :meth:`map` call and kept alive until :meth:`close`, so iterative callers
    (the shard coordinator re-solving its shards every subgradient step, a
    batch service draining request waves) pay the pool spin-up once instead
    of per wave.  ``"serial"`` never creates a pool.

    Every item runs under the caller's deadline and span: :meth:`map`
    captures both at dispatch and re-enters them in the worker, because
    context variables do not follow work into pool threads.

    Examples
    --------
    >>> with ParallelMap(executor="thread", max_workers=2) as pool:
    ...     pool.map(lambda x: x * x, [1, 2, 3])
    [1, 4, 9]
    """

    def __init__(self, executor: str = "thread", max_workers: Optional[int] = None) -> None:
        if executor not in EXECUTORS:
            raise AlgorithmError(f"unknown executor {executor!r}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError("max_workers must be at least 1")
        self.executor = executor
        self.max_workers = max_workers if max_workers is not None else _default_max_workers()
        self._pool = None

    def map(self, fn, items, describe=None) -> list:
        """Apply ``fn`` to every item, in order; short inputs run inline.

        ``describe`` (optional, ``item -> str``) enriches any exception that
        escapes a worker with the failing item's index and description, via
        ``Exception.add_note``.
        """
        items = list(items)
        deadline, parent_span = active_deadline(), current_span()

        def call(item):
            with span_scope(parent_span), deadline_scope(deadline):
                return fn(item)

        if describe is not None or self.executor != "serial":
            call = _with_context(call, describe)
            items = list(enumerate(items))
        if self.executor == "serial" or self.max_workers <= 1 or len(items) <= 1:
            return [call(item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return list(self._pool.map(call, items))

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelMap":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BatchSolveService:
    """Solve many max-flow instances concurrently through one call.

    Parameters
    ----------
    max_workers:
        Worker-pool width; defaults to ``min(8, cpu_count)``.
    executor:
        ``"thread"`` (default) or ``"serial"`` — see the module
        docstring.
    analog_solver:
        Configured :class:`~repro.analog.solver.AnalogMaxFlowSolver` used by
        every ``"analog"`` request (Table 1 defaults when omitted).
    cache_size:
        Capacity of the shared compiled-circuit cache (``0`` disables it).
    failover:
        Opt-in degraded-mode solving: ``True`` enables the default
        :class:`~repro.resilience.failover.FailoverPolicy`, or pass a
        configured policy.  Failed requests then retry and degrade along
        their declared backend chain (``analog → kernel → dinic``,
        ...), with every fallback result re-validated before it is
        accepted; requests whose whole chain fails still come back as
        typed ``ok=False`` entries.  Off (``None``) by default so the
        plain service's one-backend-one-result contract is unchanged.

    Examples
    --------
    A mixed batch — the same instance through a classical and the analog
    backend — in one call:

    >>> from repro import FlowNetwork
    >>> from repro.service import BatchSolveService, SolveRequest
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 3.0)
    >>> _ = g.add_edge("a", "t", 2.0)
    >>> service = BatchSolveService(max_workers=2)
    >>> report = service.solve_batch(
    ...     [
    ...         SolveRequest(network=g, backend="dinic", tag="exact"),
    ...         SolveRequest(network=g, backend="analog", tag="substrate"),
    ...     ]
    ... )
    >>> report.num_ok
    2
    >>> round(report.by_tag("exact")[0].flow_value, 2)
    2.0
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        analog_solver: Optional[AnalogMaxFlowSolver] = None,
        cache_size: int = 128,
        failover: Union[FailoverPolicy, bool, None] = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise AlgorithmError(f"unknown executor {executor!r}")
        if max_workers is not None and max_workers < 1:
            raise AlgorithmError("max_workers must be at least 1")
        self.max_workers = max_workers if max_workers is not None else _default_max_workers()
        self.executor = executor
        self.analog_solver = analog_solver if analog_solver is not None else AnalogMaxFlowSolver()
        self.cache = CompiledCircuitCache(max_entries=cache_size)
        if failover is True:
            failover = FailoverPolicy()
        elif failover is False:
            failover = None
        self.failover: Optional[FailoverPolicy] = failover

    # ------------------------------------------------------------------

    @staticmethod
    def _as_request(item: RequestLike) -> SolveRequest:
        if isinstance(item, SolveRequest):
            return item
        if isinstance(item, FlowNetwork):
            return SolveRequest(network=item)
        raise AlgorithmError(
            f"batch items must be SolveRequest or FlowNetwork, got {type(item).__name__}"
        )

    def _backend_factory(self) -> Callable[[str], SolveBackend]:
        """Memoizing per-name backend maker for requests and their chains.

        Fallback backends are not known up front (they come from the
        degradation chain), so they are created on first use, sharing the
        service's analog solver and compiled-circuit cache.  Pool threads
        may share one maker: a racing first use at worst builds a second,
        equivalent backend.
        """
        created: Dict[str, SolveBackend] = {}

        def make(name: str) -> SolveBackend:
            backend = created.get(name)
            if backend is None:
                backend = create_backend(
                    name,
                    analog_solver=self.analog_solver,
                    cache=self.cache,
                    executor=self.executor,
                    max_workers=self.max_workers,
                )
                created[name] = backend
            return backend

        return make

    def _solve_one(
        self,
        request: SolveRequest,
        failover: Optional[FailoverPolicy],
        make: Optional[Callable[[str], SolveBackend]] = None,
    ) -> SolveResult:
        """The one in-process path every request takes.

        ``failover`` is the chain policy to walk (``None``: one backend, one
        result).  The requested backend is created and checked before
        anything runs, so an unknown name or a malformed request raises
        (:class:`~repro.errors.AlgorithmError`,
        :class:`~repro.errors.DecompositionError`) even with failover on: a
        fallback must never "repair" a typo.  ``options["deadline_s"]``
        opens one budget around the whole request, every failover attempt
        included.
        """
        if make is None:
            make = self._backend_factory()
        backend = make(request.backend)
        backend.check(request)
        budget = request.options.get("deadline_s")
        with deadline_scope(Deadline.from_seconds(budget, label=request.backend)):
            if failover is None:
                return backend.solve(request)
            return solve_with_failover(request, failover, make)

    # ------------------------------------------------------------------

    def solve(self, network: FlowNetwork, backend: str = "analog", **options: Any) -> SolveResult:
        """Solve a single instance on the per-request path of :meth:`solve_batch`.

        Parameters
        ----------
        network:
            The instance to solve.
        backend:
            Registered backend name (see
            :func:`~repro.service.backends.create_backend`).
        **options:
            Request options (see :class:`SolveRequest`): ``deadline_s``
            bounds the whole request, failover included; ``"sharded:*"``
            backends read ``shards`` and ``max_iterations``.

        Raises
        ------
        AlgorithmError
            For unknown backend names, with or without failover.
        DecompositionError
            For a ``"sharded:*"`` request whose ``shards`` the network
            cannot be cut into.

        Examples
        --------
        >>> from repro import FlowNetwork
        >>> from repro.service import BatchSolveService
        >>> g = FlowNetwork()
        >>> _ = g.add_edge("s", "t", 1.5)
        >>> round(BatchSolveService().solve(g, backend="push-relabel").flow_value, 2)
        1.5
        """
        request = SolveRequest(network=network, backend=backend, options=dict(options))
        return self._solve_one(request, self.failover)

    def solve_batch(
        self,
        requests: Iterable[RequestLike],
        deadline: Union[Deadline, float, None] = None,
    ) -> BatchReport:
        """Solve a batch of instances and aggregate the outcome.

        Parameters
        ----------
        requests:
            :class:`SolveRequest` objects and/or bare
            :class:`~repro.graph.network.FlowNetwork` instances (which get
            the default ``"analog"`` backend).
        deadline:
            Optional shared wall-clock budget (seconds or a
            :class:`~repro.resilience.policy.Deadline`) for the whole batch:
            instances past the budget fail with typed
            ``SolveTimeoutError`` entries instead of running.

        Returns
        -------
        BatchReport
            Per-instance results in request order plus aggregate stats.
            Backend exceptions are captured per instance (``ok=False``,
            typed ``error_type``); only malformed batches (unknown backend
            name, wrong item type, a request its backend rejects such as
            ``shards=1``) raise, before any instance runs.  With a
            ``failover`` policy configured, failed instances degrade along
            their backend chain before being reported as failures.
        """
        reqs = [self._as_request(item) for item in requests]
        start = time.perf_counter()
        if not reqs:
            return BatchReport(
                results=[],
                total_wall_time_s=0.0,
                max_workers=self.max_workers,
                executor=self.executor,
                cache_stats=self.cache.stats(),
            )
        make = self._backend_factory()
        for r in reqs:  # unknown names and malformed requests fail up front
            make(r.backend).check(r)

        with span(
            "batch.solve", executor=self.executor, requests=len(reqs)
        ) as batch_span, ParallelMap(
            executor=self.executor, max_workers=self.max_workers
        ) as pool, deadline_scope(deadline, label="batch"):
            results = pool.map(
                lambda r: self._solve_one(r, self.failover, make),
                reqs,
                describe=_describe_request,
            )
            batch_span.set(
                ok=sum(1 for r in results if r.ok),
                failed=sum(1 for r in results if not r.ok),
            )

        return BatchReport(
            results=results,
            total_wall_time_s=time.perf_counter() - start,
            max_workers=self.max_workers,
            executor=self.executor,
            cache_stats=self.cache.stats(),
        )
