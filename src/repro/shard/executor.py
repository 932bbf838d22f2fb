"""Parallel shard execution: one warm streaming session per shard.

A :class:`ShardExecutor` owns one state per shard of a
:class:`~repro.shard.partition.MultiwayPartition` and re-solves all shards
once per subgradient iteration of the dual coordinator.  The crucial trick
is how multipliers reach the subproblems: every overlap vertex ``v`` of a
shard gets two pre-allocated *multiplier terminal edges* — ``v -> t``
(charged when ``v`` lands on the source side) and ``s -> v`` (charged on
the sink side) — so a multiplier update is a pure **capacity edit** on a
fixed sparsity pattern.

That is exactly the warm re-solve contract of
:class:`~repro.service.streaming.StreamingSession`, so every shard runs
one.  The session opens on the shard's first solve inside the worker pool
(one cold solve per shard per coordinator run), and each later
subgradient step is one ``session.push`` of capacity edits: classical
engines (any :data:`repro.flows.registry.ALGORITHMS` name) repair the
previous maximum flow incrementally, and ``"analog"`` re-programs the
clamp sources of the shard's one compiled circuit (no pruning, so the
edge-to-clamp map stays total) against the cached base factorisation.  A
step that changes none of a shard's multipliers returns the shard's last
answer without running its engine.  The shard keeps only what is its own:
the multiplier edges and the cut extraction from the session's flow.

Shard solves of one iteration fan out over the service executor layer
(:class:`~repro.service.batch.ParallelMap` thread pools); the pool persists
across iterations so spin-up is paid once per coordinator run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set

from ..errors import DecompositionError
from ..flows.mincut import min_cut_from_flow
from ..flows.registry import ALGORITHMS
from ..graph.network import FlowNetwork
from ..graph.updates import CapacityUpdate
from ..obs import probes
from ..obs.trace import span
from ..resilience.faults import fault_point
from ..resilience.policy import RetryPolicy
from .partition import MultiwayPartition

__all__ = ["ShardSolve", "ShardExecutor"]

Vertex = Hashable

#: The substrate engine name; every other accepted name is a classical
#: registry algorithm.
ANALOG_BACKEND = "analog"


@dataclass
class ShardSolve:
    """Outcome of one shard solve within one coordinator iteration.

    Attributes
    ----------
    shard:
        Shard id within the partition.
    value:
        The shard subproblem's min-cut value (including the multiplier
        terminal edges cut by the labelling; exact for classical backends,
        substrate-accurate for the analog one).
    source_side:
        Vertices the shard labels as source-side (terminals included).
    wall_time_s:
        Wall-clock of this shard's solve.
    warm:
        True unless this solve ran cold: the shard's opening solve, a
        cutover, or a re-solve after a failure.  A shard whose
        multipliers did not change is warm and runs no solver.
    """

    shard: int
    value: float
    source_side: Set[Vertex]
    wall_time_s: float
    warm: bool = False


class _ShardState:
    """One shard: augmented network, multiplier edges and its session."""

    def __init__(
        self,
        shard: int,
        subproblem: FlowNetwork,
        overlap_vertices: Sequence[Vertex],
        backend: str,
        analog_solver=None,
    ) -> None:
        self.shard = shard
        self.backend = backend
        self.analog_solver = analog_solver
        augmented = subproblem.snapshot()
        # Pre-allocate both multiplier terminal edges per overlap vertex so
        # later multiplier updates never change the sparsity pattern —
        # every subgradient step is a pure capacity-edit batch.
        self.source_cost_edge: Dict[Vertex, int] = {}
        self.sink_cost_edge: Dict[Vertex, int] = {}
        for vertex in overlap_vertices:
            self.source_cost_edge[vertex] = augmented.add_edge(
                vertex, augmented.sink, 0.0
            ).index
            self.sink_cost_edge[vertex] = augmented.add_edge(
                augmented.source, vertex, 0.0
            ).index
        self._unopened = augmented  # the network until the session opens
        self.session = None  # StreamingSession, opened by the first solve
        self._events: List[CapacityUpdate] = []
        self.solves = 0
        self.warm_solves = 0
        self.solve_time_s = 0.0

    @property
    def augmented(self) -> FlowNetwork:
        """The live augmented shard network (subproblem + multiplier edges)."""
        return self._unopened if self.session is None else self.session.network

    # ------------------------------------------------------------------

    def apply_coefficients(self, coefficients: Dict[Vertex, float]) -> int:
        """Stage the multiplier edge capacities realising ``w_v * x_v`` costs.

        A positive coefficient ``w`` charges ``w`` when ``v`` sits on the
        source side (the ``v -> t`` edge is then cut); a negative one
        charges ``|w|`` on the sink side (the ``s -> v`` edge).  The next
        :meth:`solve` applies the staged edits.  Returns the number of
        capacities that change.
        """
        network = self.augmented
        events: List[CapacityUpdate] = []
        for vertex, source_index in self.source_cost_edge.items():
            w = coefficients.get(vertex, 0.0)
            source_cap = max(w, 0.0)
            sink_cap = max(-w, 0.0)
            if network.edge(source_index).capacity != source_cap:
                events.append(CapacityUpdate(source_index, source_cap))
            sink_index = self.sink_cost_edge[vertex]
            if network.edge(sink_index).capacity != sink_cap:
                events.append(CapacityUpdate(sink_index, sink_cap))
        self._events = events
        return len(events)

    def solve(self) -> ShardSolve:
        """Apply the staged edits and solve the shard through its session.

        A failed push leaves the session cold, so calling this again after
        a failure re-solves the edited shard from scratch.
        """
        fault_point("shard-solve", self.backend)
        start = time.perf_counter()
        with span("shard.solve", shard=str(self.shard), backend=self.backend) as sp:
            if self.session is None:
                from ..service.streaming import StreamingSession

                for event in self._events:
                    self._unopened.set_capacity(event.edge_index, event.capacity)
                self.session = StreamingSession(
                    self._unopened, backend=self.backend, analog_solver=self.analog_solver
                )
                self._unopened = None  # the session holds its own copy
                warm = False
            else:
                warm = self.session.push(self._events).warm
            self._events = []
            sp.set(warm=warm)
            network = self.session.network
            result = self.session.result
            if self.backend == ANALOG_BACKEND:
                value = result.flow_value
                side = _source_side_from_flows(network, result.edge_flows)
            else:
                cut = min_cut_from_flow(network, result.detail)
                value, side = cut.cut_value, set(cut.source_side)
        elapsed = time.perf_counter() - start
        probes.shard_solve(self.backend, warm)
        self.solves += 1
        if warm:
            self.warm_solves += 1
        self.solve_time_s += elapsed
        return ShardSolve(
            shard=self.shard,
            value=value,
            source_side=side,
            wall_time_s=elapsed,
            warm=warm,
        )


def _source_side_from_flows(
    network: FlowNetwork,
    edge_flows: Dict[int, float],
    relative_tolerance: float = 1e-3,
) -> Set[Vertex]:
    """Residual-reachability cut labels from an *approximate* flow.

    The analog substrate settles to flows accurate to the bleed-resistor
    leakage, so residual slacks are thresholded at ``relative_tolerance``
    of the largest finite capacity instead of machine precision.  Whatever
    set comes back yields a feasible cut (any source set does); accuracy
    only affects the stitched cut's quality, never its validity.
    """
    tolerance = max(1e-9, relative_tolerance * max(network.max_capacity(), 1.0))
    adjacency: Dict[Vertex, List[Vertex]] = {v: [] for v in network.vertices()}
    for edge in network.edges():
        flow = edge_flows.get(edge.index, 0.0)
        if edge.capacity - flow > tolerance:
            adjacency[edge.tail].append(edge.head)
        if flow > tolerance:
            adjacency[edge.head].append(edge.tail)
    reachable = {network.source}
    queue = deque([network.source])
    while queue:
        vertex = queue.popleft()
        for head in adjacency[vertex]:
            if head not in reachable:
                reachable.add(head)
                queue.append(head)
    # A saturated-but-leaky cut can let the sink look reachable; a source
    # side must exclude it, so fall back to the trivial label set then.
    if network.sink in reachable:
        return {network.source}
    return reachable


class ShardExecutor:
    """Solve every shard of a partition once per coordinator iteration.

    Parameters
    ----------
    partition:
        The :class:`~repro.shard.partition.MultiwayPartition` to execute.
    backend:
        The engine every shard runs: any classical algorithm from
        :data:`repro.flows.registry.ALGORITHMS`, or ``"analog"`` for the
        substrate pipeline with warm re-solves.
    executor:
        ``"thread"`` (default) or ``"serial"`` — the service executor
        layer.
    max_workers:
        Pool width; defaults to ``min(num_shards, service default)``.
    analog_solver:
        Template :class:`~repro.analog.solver.AnalogMaxFlowSolver` for
        analog shards; its ``parameters`` set the drive voltage.  Each
        shard's session solves on a private clone with dedicated clamp
        sources and pruning disabled (both required for warm re-solves on
        a stable edge-to-clamp mapping).
    retry:
        Optional :class:`~repro.resilience.policy.RetryPolicy` for failed
        shard solves.  A failed push leaves the shard's session cold, so a
        retry re-solves the edited shard from scratch.  Timeouts are never
        retried.
    """

    def __init__(
        self,
        partition: MultiwayPartition,
        backend: str = "dinic",
        executor: str = "thread",
        max_workers: Optional[int] = None,
        analog_solver=None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        from ..service.batch import ParallelMap, _default_max_workers

        if backend != ANALOG_BACKEND and backend not in ALGORITHMS:
            known = ", ".join([ANALOG_BACKEND] + sorted(ALGORITHMS))
            raise DecompositionError(
                f"unknown shard backend {backend!r}; known: {known}"
            )
        analog = None
        if backend == ANALOG_BACKEND:
            analog = _shard_analog_solver(analog_solver)

        num_shards = partition.num_shards
        self.partition = partition
        self.backend = backend
        self.retry = retry
        if max_workers is None:
            max_workers = min(num_shards, _default_max_workers())
        self._pool = ParallelMap(executor=executor, max_workers=max_workers)
        self.executor = self._pool.executor
        self.max_workers = self._pool.max_workers

        self._states: List[_ShardState] = []
        for shard in range(num_shards):
            overlap_here = sorted(
                (v for v in partition.overlap if v in partition.sides[shard]),
                key=str,
            )
            self._states.append(
                _ShardState(
                    shard=shard,
                    subproblem=partition.subproblems[shard],
                    overlap_vertices=overlap_here,
                    backend=backend,
                    analog_solver=analog,
                )
            )

    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards this executor drives."""
        return len(self._states)

    def shard_stats(self) -> List[Dict[str, object]]:
        """Per-shard size/time/solve-count rows for the report layer."""
        rows: List[Dict[str, object]] = []
        for state in self._states:
            rows.append(
                {
                    "shard": state.shard,
                    "backend": state.backend,
                    "vertices": state.augmented.num_vertices,
                    "edges": state.augmented.num_edges,
                    "multiplier_edges": 2 * len(state.source_cost_edge),
                    "solves": state.solves,
                    "warm_solves": state.warm_solves,
                    "solve_time_s": state.solve_time_s,
                }
            )
        return rows

    def solve_iteration(
        self, coefficients: Sequence[Dict[Vertex, float]]
    ) -> List[ShardSolve]:
        """Program the multiplier coefficients and solve all shards.

        Parameters
        ----------
        coefficients:
            One ``vertex -> w`` map per shard; ``w`` is the Lagrangian
            coefficient on that shard's copy of the overlap vertex (cost
            ``w`` for labelling it source-side, ``-w`` for sink-side).

        Returns
        -------
        list of ShardSolve
            One entry per shard, in shard order.
        """
        if len(coefficients) != self.num_shards:
            raise DecompositionError(
                f"got {len(coefficients)} coefficient maps for {self.num_shards} shards"
            )
        for state, coeffs in zip(self._states, coefficients):
            state.apply_coefficients(coeffs)
        retry = self.retry

        def solve_state(state: _ShardState) -> ShardSolve:
            return state.solve() if retry is None else retry.run(state.solve)

        return self._pool.map(
            solve_state, self._states, describe=lambda s: f"shard {s.shard} ({s.backend})"
        )

    def close(self) -> None:
        """Release the worker pool (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shard_analog_solver(template):
    """Clone an analog solver template for the shards' warm re-solve loops.

    The clone forces ``prune=False`` (each session adds dedicated clamp
    sources to its own copy; both are required for warm re-solves on a
    stable edge-to-clamp mapping).  Adaptive drive is incompatible with
    the warm :meth:`resolve` path — it would recompile at escalating
    drives every iteration — so a template requesting it is rejected
    loudly rather than silently biased: pick a fixed ``vflow_v`` above the
    instance's max-flow scale instead.
    """
    from ..analog.solver import AnalogMaxFlowSolver

    if template is None:
        template = AnalogMaxFlowSolver(quantize=False)
    elif template.adaptive_drive:
        raise DecompositionError(
            "analog shard solvers re-solve warm at a fixed drive; "
            "adaptive_drive is not supported — configure a fixed vflow_v "
            "above the instance's max-flow scale instead"
        )
    return template.with_dedicated_clamps(prune=False)
