"""Streaming sessions: incremental solving for dynamic networks.

The batch service treats every request as an independent instance; real
traffic is *streams of small edits to mostly-unchanged networks*.  A
:class:`StreamingSession` keeps per-network solver state alive between
requests so a re-solve after an edit batch costs a low-rank correction
instead of a full recompile + refactorise:

* **classical backends** (any :data:`repro.flows.registry.ALGORITHMS` name)
  route through :class:`~repro.flows.incremental.IncrementalMaxFlow`:
  residual-graph repair on capacity decreases, then (from 2,000 edges)
  one compiled kernel augmentation when a level search still finds an
  augmenting path, cold cutover for large deltas;
* the **analog backend** owns one compiled circuit (with per-edge
  re-programmable clamp sources) and re-solves capacity edits through
  :meth:`~repro.analog.solver.AnalogMaxFlowSolver.resolve` — a pure
  right-hand-side update against the cached base factorisation, with the
  induced diode flips applied as Sherman–Morrison–Woodbury rank-``k``
  corrections.  Structural batches (edge inserts, finite/infinite capacity
  transitions) recompile that circuit.

The session is the one warm engine: the shard executor
(:mod:`repro.shard.executor`) runs one per shard and pushes each
subgradient step's multiplier edits into it.

Push batches of typed events (:class:`~repro.graph.updates.CapacityUpdate`,
:class:`~repro.graph.updates.EdgeInsert`,
:class:`~repro.graph.updates.EdgeRemove`) and pull
:class:`~repro.service.api.SolveResult` deltas::

    from repro.service import StreamingSession
    from repro.graph.updates import CapacityUpdate

    session = StreamingSession(network, backend="analog")
    delta = session.push([CapacityUpdate(3, 7.5)])
    print(delta.result.flow_value, delta.flow_delta, delta.warm)

Many independent sessions fan out over the usual worker pools with
:func:`push_all`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analog.solver import AnalogMaxFlowResult, AnalogMaxFlowSolver
from ..errors import AlgorithmError, InfeasibleFlowError, ReproError, SolveTimeoutError
from ..flows.incremental import IncrementalMaxFlow
from ..flows.registry import ALGORITHMS
from ..graph.network import FlowNetwork
from ..graph.updates import MutableFlowNetwork, UpdateBatch, UpdateEvent
from ..obs import probes
from ..obs.telemetry import build_telemetry
from ..obs.trace import annotate_span, span
from ..resilience.failover import certify_flow_result
from ..resilience.faults import fault_point
from ..resilience.policy import Deadline, deadline_scope
from .api import SolveRequest, SolveResult
from .backends import analog_readout
from .batch import ParallelMap

__all__ = ["StreamingDelta", "StreamingSession", "push_all"]

#: Minimum per-edge flow change reported in
#: :attr:`StreamingDelta.changed_edge_flows`.
DELTA_TOLERANCE = 1e-9


@dataclass
class StreamingDelta:
    """Outcome of one :meth:`StreamingSession.push` call.

    Attributes
    ----------
    result:
        The full :class:`~repro.service.api.SolveResult` of the new
        revision (same shape the batch service returns, so downstream
        consumers are shared).
    revision:
        Network revision this result corresponds to.
    warm:
        True when the solve reused previous state (incremental repair or
        warm analog re-solve), or when the batch changed nothing and no
        solver ran; False for cold solves and cutovers.
    recompiled:
        True when the analog backend had to recompile its circuit.
    previous:
        The result of the revision before this push, which
        :attr:`flow_delta` and :attr:`changed_edge_flows` compare against.
    """

    result: SolveResult
    revision: int
    warm: bool
    recompiled: bool
    previous: SolveResult

    @property
    def flow_value(self) -> float:
        """Flow value of the new revision (shorthand for ``result.flow_value``)."""
        return self.result.flow_value

    @property
    def flow_delta(self) -> float:
        """Change of the flow value relative to the previous revision."""
        return self.result.flow_value - self.previous.flow_value

    @cached_property
    def changed_edge_flows(self) -> Dict[int, Tuple[float, float]]:
        """``edge_index -> (previous_flow, new_flow)`` for every moved edge flow.

        An edge counts when its flow moved by more than
        :data:`DELTA_TOLERANCE`.  This is the *delta view* a downstream
        consumer (e.g. a traffic controller) acts on; it is computed when
        first read, so pushes whose caller never reads it skip the diff.
        """
        before = self.previous.edge_flows
        after = self.result.edge_flows
        changed: Dict[int, Tuple[float, float]] = {}
        for index, new in after.items():
            old = before.get(index, 0.0)
            if abs(new - old) > DELTA_TOLERANCE:
                changed[index] = (old, new)
        for index, old in before.items():
            if index not in after and abs(old) > DELTA_TOLERANCE:
                changed[index] = (old, 0.0)
        return changed


class StreamingSession:
    """Incremental solving session over one dynamic network.

    Parameters
    ----------
    network:
        Initial network; a deep snapshot is taken, so the caller's instance
        is never mutated.
    backend:
        ``"analog"`` (the substrate pipeline with warm re-solves) or any
        classical algorithm name from :data:`repro.flows.registry.ALGORITHMS`.
        The name picks the engine of cold solves (the opening one and
        ``cold_ratio`` cutovers); every classical warm push runs the same
        engine: path repair on the maintained residual, then, from 2,000
        edges and only when a level search still reaches the sink, one
        flat round trip through the kernel (blocking-flow phases below
        that size; :class:`~repro.flows.incremental.IncrementalMaxFlow`).
        Warm results report ``"incremental-dinic"``.
    analog_solver:
        Configured :class:`~repro.analog.solver.AnalogMaxFlowSolver` for the
        analog backend; its ``parameters`` set the drive voltage.  The
        session always works on a private clone with per-edge
        re-programmable clamps (all other settings preserved), so its
        compiled circuit and persistent DC engine are never shared with
        another session pushing concurrently.
    cold_ratio:
        Cutover heuristic: batches touching more than this fraction of the
        edges are solved cold.
    validate:
        Gate every pushed result through a feasibility check
        (:func:`~repro.resilience.failover.certify_flow_result`).  A warm
        result that fails the check is discarded and re-solved cold once
        (counted in ``degraded_pushes``); a cold result that still fails
        raises :class:`~repro.errors.InfeasibleFlowError` — corrupted
        answers never reach the caller silently.

    Examples
    --------
    >>> from repro import FlowNetwork
    >>> from repro.graph.updates import CapacityUpdate
    >>> from repro.service import StreamingSession
    >>> g = FlowNetwork()
    >>> _ = g.add_edge("s", "a", 3.0)
    >>> _ = g.add_edge("a", "t", 2.0)
    >>> session = StreamingSession(g, backend="dinic", cold_ratio=1.0)
    >>> session.flow_value
    2.0
    >>> delta = session.push([CapacityUpdate(1, 3.5)])
    >>> (delta.flow_value, delta.warm, round(delta.flow_delta, 2))
    (3.0, True, 1.0)
    """

    def __init__(
        self,
        network: FlowNetwork,
        backend: str = "analog",
        analog_solver: Optional[AnalogMaxFlowSolver] = None,
        cold_ratio: float = 0.25,
        validate: bool = False,
    ) -> None:
        if backend != "analog" and backend not in ALGORITHMS:
            known = ", ".join(["analog"] + sorted(ALGORITHMS))
            raise AlgorithmError(f"unknown streaming backend {backend!r}; known: {known}")
        self.backend = backend
        self.cold_ratio = cold_ratio
        self.validate = validate
        self._mutable = MutableFlowNetwork(network, copy=True)
        self.warm_solves = 0
        self.cold_solves = 1  # the opening solve below
        self.degraded_pushes = 0
        self.recompiles = 0
        self.total_solve_time_s = 0.0
        self._opened_at = time.perf_counter()

        self._incremental: Optional[IncrementalMaxFlow] = None
        self._compiled = None
        self._analog_previous: Optional[AnalogMaxFlowResult] = None
        self._stale = False  # True after a failed push: _last is out of date
        if backend == "analog":
            solver = analog_solver if analog_solver is not None else AnalogMaxFlowSolver()
            self.analog_solver = solver.with_dedicated_clamps()
            self._last = self._analog_solve(batch=None)
        else:
            self.analog_solver = None
            self._last = self._classical_solve(batch=None)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def network(self) -> FlowNetwork:
        """The live network at the current revision (do not mutate directly)."""
        return self._mutable.network

    @property
    def revision(self) -> int:
        """Monotonic revision counter of the session's network."""
        return self._mutable.revision

    @property
    def result(self) -> SolveResult:
        """The :class:`~repro.service.api.SolveResult` of the current revision."""
        return self._last

    @property
    def flow_value(self) -> float:
        """Maximum-flow value at the current revision."""
        return self._last.flow_value

    def snapshot(self) -> FlowNetwork:
        """Deep checkpoint of the current revision (safe to keep/mutate)."""
        return self._mutable.snapshot()

    def summary(self) -> Dict[str, object]:
        """Aggregate session statistics.

        Every solve — the opening one and each push that re-solved — is
        counted once, in ``warm_solves`` or ``cold_solves`` by the path
        that produced its answer, so ``pushes`` is their sum.  Mirrors
        :meth:`repro.service.api.BatchReport.summary` so dashboards can
        consume batch and streaming telemetry uniformly.
        """
        pushes = self.warm_solves + self.cold_solves
        return {
            "backend": self.backend,
            "revision": self.revision,
            "structural_revision": self._mutable.structural_revision,
            "pushes": pushes,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "degraded_pushes": self.degraded_pushes,
            "recompiles": self.recompiles,
            "flow_value": self.flow_value,
            "solve_time_total_s": self.total_solve_time_s,
            "session_age_s": time.perf_counter() - self._opened_at,
        }

    def telemetry(self) -> Dict[str, object]:
        """The unified ``repro.telemetry/v1`` document for this session.

        Same shape as :meth:`repro.service.api.BatchReport.telemetry` —
        the session ``summary()``, the process metrics snapshot, and the
        ``trace`` section (see :mod:`repro.obs.telemetry`); the
        ``cache`` section is empty, since a session owns its one compiled
        circuit.
        """
        return build_telemetry("streaming", self.summary())

    # ------------------------------------------------------------------
    # Update ingestion
    # ------------------------------------------------------------------

    def push(
        self,
        events: Iterable[UpdateEvent],
        deadline: "Deadline | float | None" = None,
    ) -> StreamingDelta:
        """Apply an update batch and re-solve, returning the delta view.

        Parameters
        ----------
        events:
            :class:`~repro.graph.updates.CapacityUpdate` /
            :class:`~repro.graph.updates.EdgeInsert` /
            :class:`~repro.graph.updates.EdgeRemove` events, applied in
            order (see :meth:`repro.graph.updates.MutableFlowNetwork.apply`).
            A batch that changes nothing returns the last result without
            running a solver.
        deadline:
            Optional wall-clock budget (seconds or a
            :class:`~repro.resilience.policy.Deadline`) for this push.  On
            expiry :class:`~repro.errors.SolveTimeoutError` is raised and
            the session's warm state is discarded, so the next push — even
            one that changes nothing, such as a retry of the same events —
            solves the (already-applied) current revision cold.

        Returns
        -------
        StreamingDelta
            New revision's result plus what changed since the previous one.
        """
        previous = self._last
        batch = self._mutable.apply(events)
        if batch.num_changed_edges == 0 and not self._stale:
            # Idempotent batch (values already current): nothing to re-solve,
            # and the telemetry must not re-count the previous solve.
            return StreamingDelta(
                result=previous,
                revision=batch.revision,
                warm=True,
                recompiled=False,
                previous=previous,
            )
        recompiles_before = self.recompiles
        with span(
            "streaming.push", backend=self.backend, revision=batch.revision
        ) as sp, deadline_scope(
            deadline, label=f"streaming push rev {batch.revision}"
        ):
            try:
                if self.backend == "analog":
                    result = self._analog_push(batch)
                else:
                    result = self._classical_solve(batch)
                    if self.validate:
                        certify_flow_result(
                            self._mutable.network,
                            result.flow_value,
                            result.edge_flows,
                            exact=True,
                        )
            except ReproError:
                # The events are already applied to the network; dropping the
                # warm solver state keeps the session consistent — the next
                # push (or a retry) rebuilds cold at the current revision.
                self._invalidate()
                raise
            warm = result.cache_hit
            if warm:
                self.warm_solves += 1
            else:
                self.cold_solves += 1
            sp.set(warm=warm)
            probes.streaming_push(self.backend, warm)
        self._last = result
        self._stale = False
        return StreamingDelta(
            result=result,
            revision=batch.revision,
            warm=warm,
            recompiled=self.recompiles > recompiles_before,
            previous=previous,
        )

    def _invalidate(self) -> None:
        """Discard warm solver state after a failed push (session stays usable).

        The last result then describes an older revision, so the next push
        must solve even if its batch changes nothing.
        """
        self._compiled = None
        self._analog_previous = None
        self._incremental = None
        self._stale = True

    def _analog_push(self, batch: UpdateBatch) -> SolveResult:
        result = self._analog_solve(batch)
        if self.validate:
            try:
                certify_flow_result(
                    self._mutable.network,
                    result.flow_value,
                    result.edge_flows,
                    exact=False,
                )
            except InfeasibleFlowError:
                if not result.cache_hit:
                    raise
                # Corrupted warm answer: discard the warm state, re-solve
                # cold once and insist the cold answer certifies.
                self._compiled = None
                self._analog_previous = None
                self.degraded_pushes += 1
                result = self._analog_solve(batch)
                certify_flow_result(
                    self._mutable.network,
                    result.flow_value,
                    result.edge_flows,
                    exact=False,
                )
        return result

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------

    def _classical_solve(self, batch: Optional[UpdateBatch]) -> SolveResult:
        """Solve the current revision classically (warm when the engine lives).

        ``cache_hit`` on the returned result says whether it was warm.
        """
        if self._incremental is None:
            if batch is not None:
                # A previous push died mid-solve: rebuild the engine cold
                # at the current revision (the mutable network carries
                # every batch).
                self.degraded_pushes += 1
            self._incremental = IncrementalMaxFlow(
                self._mutable, algorithm=self.backend, cold_ratio=self.cold_ratio
            )
            inc_result = self._incremental.result
        else:
            repair_failures = self._incremental.repair_failures
            inc_result = self._incremental.apply(batch)
            if self._incremental.repair_failures > repair_failures:
                self.degraded_pushes += 1
        self.total_solve_time_s += inc_result.wall_time_s
        return SolveResult(
            request=SolveRequest(network=self._mutable.network, backend=self.backend),
            flow_value=inc_result.flow_value,
            # The engine hands every result its own flow dict; no copy needed.
            edge_flows=inc_result.edge_flows,
            wall_time_s=inc_result.wall_time_s,
            cache_hit=inc_result.algorithm.startswith("incremental"),
            detail=inc_result,
        )

    def _analog_solve(self, batch: Optional[UpdateBatch]) -> SolveResult:
        """Solve the current revision on the analog backend (warm when possible).

        ``cache_hit`` on the returned result says whether it was warm.
        """
        start = time.perf_counter()
        network = self._mutable.network
        structural = batch is None or batch.structural or self._compiled is None
        warm = False
        analog = None
        if not structural:
            try:
                fault_point("streaming-warm", "analog")
                analog = self.analog_solver.resolve(
                    self._compiled, network=network, previous=self._analog_previous
                )
                warm = True
            except SolveTimeoutError:
                raise
            except ReproError:
                # Warm re-solve failed (substrate fault, singular update …):
                # degrade to a cold recompile of the same revision.
                self._compiled = None
                self._analog_previous = None
                self.degraded_pushes += 1
                structural = True
        if structural:
            self._compiled = self.analog_solver.compile(network)
            self._compiled.mna()  # memoize the MNA system + stamp template
            self.recompiles += 1
            analog = self.analog_solver.resolve(
                self._compiled, network=network, previous=None
            )
        self._analog_previous = analog
        elapsed = time.perf_counter() - start
        self.total_solve_time_s += elapsed
        annotate_span(
            analog_warm=warm,
            analog_recompiled=structural,
            analog_solve_s=elapsed,
        )
        # The readout builds a fresh flow dict per decode; no copy needed.
        flow_value, edge_flows = analog_readout(analog)
        return SolveResult(
            request=SolveRequest(network=network, backend="analog"),
            flow_value=flow_value,
            edge_flows=edge_flows,
            wall_time_s=elapsed,
            cache_hit=warm,
            detail=analog,
        )


def push_all(
    sessions: Sequence[StreamingSession],
    batches: Sequence[Iterable[UpdateEvent]],
    max_workers: Optional[int] = None,
) -> List[StreamingDelta]:
    """Push one update batch into each of many sessions concurrently.

    Each session is independent state, so sessions fan out over a
    :class:`~repro.service.batch.ParallelMap` thread pool exactly like batch
    requests do (the MNA hot path releases the GIL inside LAPACK/SuperLU),
    under the caller's deadline and span.  ``sessions[i]`` receives
    ``batches[i]``.

    Parameters
    ----------
    sessions:
        The open sessions (one per dynamic network).
    batches:
        One iterable of update events per session.
    max_workers:
        Thread-pool width; defaults to ``min(8, len(sessions))``.

    Returns
    -------
    list of StreamingDelta
        Deltas in session order.
    """
    if len(sessions) != len(batches):
        raise AlgorithmError(
            f"got {len(sessions)} sessions but {len(batches)} update batches"
        )
    if not sessions:
        return []
    workers = max_workers if max_workers is not None else min(8, len(sessions))
    with ParallelMap(executor="thread", max_workers=workers) as pool:
        return pool.map(lambda pair: pair[0].push(pair[1]), zip(sessions, batches))
