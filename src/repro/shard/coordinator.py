"""N-way dual coordinator: projected subgradient over shard disagreements.

Generalises the two-subproblem dual decomposition of Section 6.4 /
Strandmark & Kahl [39] to the N-way partitions of
:mod:`repro.shard.partition`.  The min-cut objective is written over 0/1
source-side labels; every overlap vertex ``v`` is duplicated into each
member shard, and consistency is enforced by a *chain* of equality
constraints between consecutive member copies,

    x_v^{i_1} = x_v^{i_2} = ... = x_v^{i_k},

one Lagrange multiplier per chain link.  Relaxing the chains splits the
Lagrangian into independent shard subproblems in which multiplier terms are
*terminal-capacity adjustments* — exactly the capacity edits the
:class:`~repro.shard.executor.ShardExecutor` pre-allocates edges for.  Each
iteration:

1. solve every shard (in parallel) with the current multipliers;
2. the sum of shard values minus the sign-correction constant is a valid
   **lower bound** on the global min cut (any consistent labelling is
   feasible for every shard, and shared edges carry ``1/m`` of their
   capacity in each of their ``m`` shards);
3. stitching the shard labellings — exclusive vertices keep their own
   shard's label, overlap vertices are resolved by majority or by trusting
   one shard — yields feasible cuts, i.e. **upper bounds**; the cheapest is
   kept;
4. multipliers move along the chain-disagreement subgradient with the
   classic diminishing step ``INITIAL_STEP * C / iteration``.

The solve stops when every chain agrees (strong duality then certifies the
stitched cut as optimal for exact backends) or when the bound gap closes to
``GAP_TOLERANCE``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..graph.network import FlowNetwork
from ..obs import probes
from ..resilience.policy import check_deadline
from .executor import ShardExecutor, ShardSolve
from .partition import MultiwayPartition, partition_multiway

__all__ = ["ShardCoordinator", "ShardOutcome"]

Vertex = Hashable

#: Initial subgradient step, scaled by the largest edge capacity and divided
#: by the iteration number (the classic diminishing rule).
INITIAL_STEP = 0.25
#: Terminate once ``best_feasible - best_dual`` falls to this value.
GAP_TOLERANCE = 1e-9


@dataclass
class ShardOutcome:
    """Result of one N-way coordinated solve.

    Attributes
    ----------
    cut_value:
        Best feasible (stitched) cut value — an upper bound on the global
        minimum, equal to it when ``converged`` is True and the shard
        backends are exact.
    dual_value:
        Best dual lower bound across iterations.
    iterations:
        Subgradient iterations performed.
    converged:
        True when every overlap chain agreed or the bound gap closed.
    disagreements:
        Overlap vertices whose member copies still disagree at termination.
    partition:
        The stitched source-side vertex set of the best feasible cut.
    history:
        Per-iteration ``(dual value, feasible value, disagreements)`` rows —
        the bound trajectory.
    num_shards:
        Number of shards coordinated.
    shard_stats:
        Per-shard rows (sizes, solve counts, cumulative solve seconds) from
        the executor.
    partition_summary:
        :meth:`~repro.shard.partition.MultiwayPartition.describe` output.
    wall_time_s:
        End-to-end coordination wall time.
    """

    cut_value: float
    dual_value: float
    iterations: int
    converged: bool
    disagreements: int
    partition: Set[Vertex]
    history: List[Tuple[float, float, int]] = field(default_factory=list)
    num_shards: int = 2
    shard_stats: List[Dict[str, object]] = field(default_factory=list)
    partition_summary: Dict[str, object] = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def duality_gap(self) -> float:
        """Gap between the best feasible cut and the best dual bound."""
        return self.cut_value - self.dual_value


class ShardCoordinator:
    """Coordinate N overlapping shard subproblems to a global min cut.

    The instance is split by :func:`~repro.shard.partition.partition_multiway`
    with its default BFS ordering and equal shard sizes.

    Parameters
    ----------
    num_shards:
        Number of shards (>= 2).
    max_iterations:
        Subgradient iteration budget.
    """

    def __init__(self, num_shards: int = 2, max_iterations: int = 60) -> None:
        self.num_shards = num_shards
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------

    def solve(
        self,
        network: FlowNetwork,
        backend: str = "dinic",
        executor: str = "thread",
        max_workers: Optional[int] = None,
        analog_solver=None,
        retry=None,
    ) -> ShardOutcome:
        """Run the coordinated N-way solve on ``network``.

        Parameters
        ----------
        network:
            The instance to solve.
        backend, executor, max_workers, analog_solver, retry:
            Passed through to :class:`~repro.shard.executor.ShardExecutor`
            (the engine every shard runs, service executor layer, analog
            template, per-shard retry policy).

        Returns
        -------
        ShardOutcome
            Best feasible cut, dual bound, bound trajectory and per-shard
            telemetry.
        """
        started = time.perf_counter()
        partition = partition_multiway(network, self.num_shards)
        overlap = sorted(partition.overlap, key=str)
        members: Dict[Vertex, Tuple[int, ...]] = {
            v: partition.membership[v] for v in overlap
        }
        # One multiplier per chain link between consecutive member copies.
        multipliers: Dict[Vertex, List[float]] = {
            v: [0.0] * (len(members[v]) - 1) for v in overlap
        }
        capacity_scale = max(network.max_capacity(), 1.0)

        best_feasible = float("inf")
        best_partition: Set[Vertex] = {network.source}
        best_dual = -float("inf")
        history: List[Tuple[float, float, int]] = []
        disagreements = len(overlap)
        converged = False

        with ShardExecutor(
            partition,
            backend=backend,
            executor=executor,
            max_workers=max_workers,
            analog_solver=analog_solver,
            retry=retry,
        ) as shards:
            for iteration in range(1, self.max_iterations + 1):
                check_deadline("shard coordinator iteration")
                probes.shard_iteration()
                coefficients, constant = self._coefficients(
                    partition.num_shards, overlap, members, multipliers
                )
                solves = shards.solve_iteration(coefficients)

                dual_value = sum(s.value for s in solves) - constant
                best_dual = max(best_dual, dual_value)

                feasible_value, stitched = self._stitch(network, partition, solves)
                if feasible_value < best_feasible:
                    best_feasible = feasible_value
                    best_partition = stitched

                disagreements = sum(
                    1
                    for v in overlap
                    if len({(v in solves[i].source_side) for i in members[v]}) > 1
                )
                history.append((dual_value, feasible_value, disagreements))
                if disagreements == 0:
                    converged = True
                    break
                if best_feasible - best_dual <= GAP_TOLERANCE:
                    converged = True
                    break

                # Disagreeing chain links carry the (+-1) subgradient.
                links: List[Tuple[Vertex, int, float]] = []
                for vertex in overlap:
                    member_list = members[vertex]
                    for pos in range(len(member_list) - 1):
                        here = vertex in solves[member_list[pos]].source_side
                        there = vertex in solves[member_list[pos + 1]].source_side
                        if here != there:
                            links.append((vertex, pos, 1.0 if here else -1.0))
                step = INITIAL_STEP * capacity_scale / iteration
                for vertex, pos, direction in links:
                    # Ascend the dual: charging the copy that said "source"
                    # and rebating the one that said "sink" pushes the chain
                    # toward agreement.
                    multipliers[vertex][pos] += step * direction

            shard_stats = shards.shard_stats()

        return ShardOutcome(
            cut_value=best_feasible,
            dual_value=best_dual,
            iterations=len(history),
            converged=converged,
            disagreements=disagreements,
            partition=best_partition,
            history=history,
            num_shards=partition.num_shards,
            shard_stats=shard_stats,
            partition_summary=partition.describe(),
            wall_time_s=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _coefficients(
        num_shards: int,
        overlap: Sequence[Vertex],
        members: Dict[Vertex, Tuple[int, ...]],
        multipliers: Dict[Vertex, List[float]],
    ) -> Tuple[List[Dict[Vertex, float]], float]:
        """Per-shard Lagrangian coefficients and the sign-correction constant.

        The chain Lagrangian gives shard ``i_m`` the net coefficient
        ``w = lam_m - lam_{m-1}`` on its copy of ``x_v``.  Realising a
        negative ``w`` needs an ``s -> v`` edge whose cost is
        ``|w| * (1 - x_v) = w * x_v + |w|``, so every negative coefficient
        inflates the realised subproblem value by ``|w|``; the summed
        inflation is returned as the constant to subtract from the dual.
        """
        coefficients: List[Dict[Vertex, float]] = [{} for _ in range(num_shards)]
        constant = 0.0
        for vertex in overlap:
            member_list = members[vertex]
            lams = multipliers[vertex]
            for pos, shard in enumerate(member_list):
                w = 0.0
                if pos < len(lams):
                    w += lams[pos]
                if pos > 0:
                    w -= lams[pos - 1]
                if w != 0.0:
                    coefficients[shard][vertex] = w
                    constant += max(0.0, -w)
        return coefficients, constant

    @staticmethod
    def _stitch(
        network: FlowNetwork,
        partition: MultiwayPartition,
        solves: Sequence[ShardSolve],
    ) -> Tuple[float, Set[Vertex]]:
        """Best feasible cut stitched from the shard labellings.

        Exclusive vertices keep their own shard's label.  Overlap vertices
        are ambiguous until the multipliers force agreement, so several
        resolutions are tried — majority vote across the member copies,
        plus "trust shard j" for every shard — and the cheapest feasible
        cut wins.
        """
        membership = partition.membership
        terminals = (network.source, network.sink)

        def label(vertex: Vertex, trusted: Optional[int]) -> bool:
            member_list = membership[vertex]
            if len(member_list) == 1:
                return vertex in solves[member_list[0]].source_side
            if trusted is not None and trusted in member_list:
                return vertex in solves[trusted].source_side
            votes = sum(1 for i in member_list if vertex in solves[i].source_side)
            return 2 * votes >= len(member_list)

        candidates: List[Optional[int]] = [None] + list(range(len(solves)))
        best_value = float("inf")
        best_side: Set[Vertex] = {network.source}
        seen: Set[frozenset] = set()
        for trusted in candidates:
            side = {network.source}
            for vertex in network.vertices():
                if vertex in terminals:
                    continue
                if label(vertex, trusted):
                    side.add(vertex)
            frozen = frozenset(side)
            if frozen in seen:
                continue
            seen.add(frozen)
            value = network.cut_capacity(side)
            if value < best_value:
                best_value = value
                best_side = side
        return best_value, best_side
