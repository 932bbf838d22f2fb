"""Parallel shard execution with per-shard backend choice.

A :class:`ShardExecutor` owns one *solver state* per shard of a
:class:`~repro.shard.partition.MultiwayPartition` and re-solves all shards
once per subgradient iteration of the dual coordinator.  The crucial trick
is how multipliers reach the subproblems: every overlap vertex ``v`` of a
shard gets two pre-allocated *multiplier terminal edges* — ``v -> t``
(charged when ``v`` lands on the source side) and ``s -> v`` (charged on
the sink side) — so a multiplier update is a pure **capacity edit** on a
fixed sparsity pattern.  That makes every backend's iteration-over-iteration
path cheap:

* classical backends (any :data:`repro.flows.registry.ALGORITHMS` name)
  repair the previous iteration's maximum flow through
  :class:`~repro.flows.incremental.IncrementalMaxFlow` — the multiplier
  edits are capacity changes, so the engine resumes instead of
  re-solving the shard cold;
* the ``"analog"`` backend compiles each shard **once** (dedicated
  re-programmable clamp sources, no pruning) and re-solves every iteration
  through :meth:`~repro.analog.solver.AnalogMaxFlowSolver.resolve` — clamp
  re-programming is a right-hand-side edit against the cached base LU
  factorisation, warm-started from the previous iteration's operating
  point, exactly the streaming subsystem's warm path.

Shard solves of one iteration fan out over the service executor layer
(:class:`~repro.service.batch.ParallelMap` thread pools); the pool persists
across iterations so spin-up is paid once per coordinator run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple, Union

from ..errors import DecompositionError
from ..flows.incremental import IncrementalMaxFlow
from ..flows.mincut import min_cut_from_flow
from ..flows.registry import ALGORITHMS
from ..graph.network import FlowNetwork
from ..graph.updates import CapacityUpdate, MutableFlowNetwork
from ..obs import probes
from ..obs.trace import span
from ..resilience.faults import fault_point
from ..resilience.policy import RetryPolicy
from .partition import MultiwayPartition

__all__ = ["ShardSolve", "ShardExecutor"]

Vertex = Hashable

#: Backend names the executor accepts: every classical registry algorithm
#: plus the analog warm-resolve pipeline.
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
        True when the analog backend re-solved warm (no recompile).
    """

    shard: int
    value: float
    source_side: Set[Vertex]
    wall_time_s: float
    warm: bool = False


class _ShardState:
    """Private solver state of one shard (augmented network + backend)."""

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
        self.mutable = MutableFlowNetwork(augmented, copy=False)
        self.solves = 0
        self.warm_solves = 0
        self.solve_time_s = 0.0
        self._pending: List[object] = []  # UpdateBatch queue for warm repair
        # Classical warm state (lazy: the engine's constructor cold-solves).
        self._incremental: Optional[IncrementalMaxFlow] = None
        # Analog-only state.
        self.analog_solver = analog_solver
        self.compiled = None
        self.previous = None

    @property
    def augmented(self) -> FlowNetwork:
        """The live augmented shard network (subproblem + multiplier edges)."""
        return self.mutable.network

    # ------------------------------------------------------------------

    def apply_coefficients(self, coefficients: Dict[Vertex, float]) -> int:
        """Program the multiplier edges to realise ``w_v * x_v`` costs.

        A positive coefficient ``w`` charges ``w`` when ``v`` sits on the
        source side (the ``v -> t`` edge is then cut); a negative one
        charges ``|w|`` on the sink side (the ``s -> v`` edge).  Returns the
        number of capacities actually changed.
        """
        network = self.mutable.network
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
        if events:
            self._pending.append(self.mutable.apply(events))
        return len(events)

    def reset(self) -> None:
        """Drop all warm state so the next solve rebuilds cold.

        Called between retry attempts: a failure can leave the incremental
        engine / analog operating point half-updated, and a cold rebuild
        only depends on the (consistent) augmented network.
        """
        self._pending.clear()
        self._incremental = None
        self.compiled = None
        self.previous = None

    def solve(self) -> ShardSolve:
        """Solve the current augmented shard network with its backend."""
        fault_point("shard-solve", self.backend)
        start = time.perf_counter()
        with span("shard.solve", shard=str(self.shard), backend=self.backend) as sp:
            if self.backend == ANALOG_BACKEND:
                value, side, warm = self._solve_analog()
            else:
                value, side, warm = self._solve_classical()
            sp.set(warm=warm)
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

    # ------------------------------------------------------------------

    def _solve_classical(self) -> Tuple[float, Set[Vertex], bool]:
        network = self.mutable.network
        # Multiplier updates were capacity edits, so the engine repairs the
        # previous maximum flow instead of re-solving cold.
        warm = self._incremental is not None
        if self._incremental is None:
            self._pending.clear()
            self._incremental = IncrementalMaxFlow(self.mutable, algorithm=self.backend)
            flow = self._incremental.result
        else:
            flow = self._incremental.result
            for batch in self._pending:
                flow = self._incremental.apply(batch)
            self._pending.clear()
            warm = flow.algorithm.startswith("incremental")
        cut = min_cut_from_flow(network, flow)
        return cut.cut_value, set(cut.source_side), warm

    def _solve_analog(self) -> Tuple[float, Set[Vertex], bool]:
        network = self.mutable.network
        self._pending.clear()
        warm = self.compiled is not None
        if self.compiled is None:
            self.compiled = self.analog_solver.compile(network)
            self.compiled.mna()  # memoize the MNA system + stamp template
            result = self.analog_solver.resolve(
                self.compiled, network=network, previous=None
            )
        else:
            # Multiplier updates were pure capacity edits: re-program the
            # clamp sources (an RHS update against the cached base LU) and
            # warm-start the diode iteration from the previous operating
            # point.
            result = self.analog_solver.resolve(
                self.compiled, network=network, previous=self.previous
            )
        self.previous = result
        side = _source_side_from_flows(network, result.edge_flows)
        return result.flow_value, side, warm


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
        Backend name, or one name per shard: any classical algorithm from
        :data:`repro.flows.registry.ALGORITHMS`, or ``"analog"`` for the
        substrate pipeline with warm re-solves.
    executor:
        ``"thread"`` (default) or ``"serial"`` — the service executor
        layer.
    max_workers:
        Pool width; defaults to ``min(num_shards, service default)``.
    analog_solver:
        Template :class:`~repro.analog.solver.AnalogMaxFlowSolver` for
        analog shards.  Each shard clones it with dedicated clamp sources
        and pruning disabled (both required for warm re-solves on a stable
        edge-to-clamp mapping).
    retry:
        Optional :class:`~repro.resilience.policy.RetryPolicy` for failed
        shard solves: each retry first drops the shard's warm state so the
        attempt rebuilds cold from the consistent augmented network.
        Timeouts are never retried.
    """

    def __init__(
        self,
        partition: MultiwayPartition,
        backend: Union[str, Sequence[str]] = "dinic",
        executor: str = "thread",
        max_workers: Optional[int] = None,
        analog_solver=None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        from ..service.batch import ParallelMap, _default_max_workers

        num_shards = partition.num_shards
        if isinstance(backend, str):
            backends = [backend] * num_shards
        else:
            backends = list(backend)
            if len(backends) != num_shards:
                raise DecompositionError(
                    f"got {len(backends)} backends for {num_shards} shards"
                )
        for name in backends:
            if name != ANALOG_BACKEND and name not in ALGORITHMS:
                known = ", ".join([ANALOG_BACKEND] + sorted(ALGORITHMS))
                raise DecompositionError(
                    f"unknown shard backend {name!r}; known: {known}"
                )

        self.partition = partition
        self.backends = backends
        self.retry = retry
        if max_workers is None:
            max_workers = min(num_shards, _default_max_workers())
        self._pool = ParallelMap(executor=executor, max_workers=max_workers)
        self.executor = self._pool.executor
        self.max_workers = self._pool.max_workers

        self._states: List[_ShardState] = []
        for shard in range(num_shards):
            analog = None
            if backends[shard] == ANALOG_BACKEND:
                analog = _shard_analog_solver(analog_solver)
            overlap_here = sorted(
                (v for v in partition.overlap if v in partition.sides[shard]),
                key=str,
            )
            self._states.append(
                _ShardState(
                    shard=shard,
                    subproblem=partition.subproblems[shard],
                    overlap_vertices=overlap_here,
                    backend=backends[shard],
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
            if retry is None:
                return state.solve()
            # run() owns the attempt budget; each failed attempt drops the
            # shard's warm state so the next one rebuilds cold (timeouts
            # propagate immediately, never retried).
            return retry.run(
                state.solve,
                on_retry=lambda attempt, exc: state.reset(),
            )

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
    """Clone an analog solver template for one shard's warm re-solve loop.

    The clone forces ``dedicated_clamp_sources=True`` and ``prune=False``
    (both required for warm re-solves on a stable edge-to-clamp mapping).
    Adaptive drive is incompatible with the warm :meth:`resolve` path — it
    would recompile at escalating drives every iteration — so a template
    requesting it is rejected loudly rather than silently biased: pick a
    fixed ``vflow_v`` above the instance's max-flow scale instead.
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
