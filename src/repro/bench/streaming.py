"""Shared measurement harness for the streaming (warm re-solve) subsystem.

One instance-selection + measurement implementation consumed by both
``benchmarks/bench_streaming.py`` (pytest-enforced warm-vs-cold speedup
thresholds) and ``tools/perf_gate.py --suite streaming`` (the
``BENCH_streaming.json`` perf-trajectory record), mirroring
:mod:`repro.bench.assembly`.

The scenario is the streaming workload of the roadmap: a Fig. 10-style
R-MAT instance receives successive update batches, each re-weighting a small
fraction (default 5%) of its edges.  For every batch the harness measures

* **classical** — a cold Dinic solve of the updated snapshot vs the
  incremental engine's warm repair
  (:class:`~repro.flows.incremental.IncrementalMaxFlow` via a
  :class:`~repro.service.streaming.StreamingSession`);
* **analog** — a cold compile + DC solve of the updated snapshot vs the
  warm re-solve (clamp re-programming + warm-started diode iteration
  against the cached base factorisation).

Warm/cold flow-value agreement is recorded alongside the timings: the
classical pair must match to 1e-9 (both are exact algorithms); the analog
pair converges to operating points of the same circuit, which may differ in
their (non-unique) interior flow decomposition, so agreement is bounded by
the substrate's bleed-resistor leakage (~1e-4 relative) rather than machine
precision — see ``docs/architecture.md``.

:func:`measure_streaming_grid` records the bound "a push is never much
slower than a cold solve" on the served stream's shape: a real 24x90 grid
at scale 0.5 (6,324 edges, the perfbench ``stream-edit`` base) receiving
compounding edits to 1% of its edges, each push timed, against cold
:class:`~repro.flows.kernel.KernelDinic` solves of sampled revisions
interleaved in the same run.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from typing import Callable, Dict, List

import numpy as np

from ..analog.solver import AnalogMaxFlowSolver
from ..flows.kernel import KernelDinic
from ..flows.registry import get_algorithm
from ..graph.generators import grid_graph
from ..graph.network import FlowNetwork
from ..graph.updates import CapacityUpdate
from ..service.streaming import StreamingSession
from .assembly import assembly_workload

__all__ = ["streaming_update_batches", "measure_streaming_class", "measure_streaming_grid"]


def streaming_update_batches(
    network: FlowNetwork,
    delta_fraction: float,
    steps: int,
    seed: int = 20150601,
) -> List[List[CapacityUpdate]]:
    """Deterministic per-step capacity-edit batches for a streaming run.

    Each batch re-weights ``max(1, round(delta_fraction * |E|))`` distinct
    edges by a factor drawn from ``{0.5, 0.8, 1.25, 2.0}`` (an even mix of
    decreases — which exercise the overflow-repair path when they bind — and
    increases — which exercise warm augmentation).  Factors compose across
    steps, so the stream drifts the way production re-weightings do; the
    adversarial cases (removals, zero capacities, inserts) are covered by
    the randomized equivalence tests rather than the timing benchmark.
    """
    rng = random.Random(seed)
    capacities = {edge.index: edge.capacity for edge in network.edges()}
    k = max(1, round(delta_fraction * network.num_edges))
    batches: List[List[CapacityUpdate]] = []
    for _ in range(steps):
        picked = rng.sample(sorted(capacities), min(k, len(capacities)))
        batch = []
        for index in picked:
            factor = rng.choice([0.5, 0.8, 1.25, 2.0])
            capacities[index] = capacities[index] * factor
            batch.append(CapacityUpdate(index, capacities[index]))
        batches.append(batch)
    return batches


def _timed(func: Callable[[], object]):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def measure_streaming_class(
    regime: str,
    scale: float,
    delta_fraction: float = 0.05,
    steps: int = 3,
    reducer: Callable = statistics.median,
    seed: int = 20150601,
) -> Dict[str, object]:
    """Measure warm-vs-cold re-solves for one Fig. 10 instance class.

    Parameters
    ----------
    regime:
        ``"dense"`` or ``"sparse"`` (same instance selection as the
        assembly harness).
    scale:
        Fig. 10 workload scale.
    delta_fraction:
        Fraction of edges re-weighted per update batch (default 5%, the
        acceptance scenario).
    steps:
        Number of successive update batches; per-step timings are collapsed
        with ``reducer`` (median by default).

    Returns
    -------
    dict
        Instance metadata plus, per layer, the reduced cold/warm times
        (seconds), the speedup of the reduced times and the worst relative
        warm-vs-cold flow disagreement across steps.
    """
    workload = assembly_workload(regime, scale)
    network = workload.generate()
    batches = streaming_update_batches(network, delta_fraction, steps, seed)

    # The two layers run the same update stream back to back (not
    # interleaved) so each layer's warm timings see steady caches.
    classical_session = StreamingSession(network, backend="dinic", cold_ratio=1.0)
    classical_cold: List[float] = []
    classical_warm: List[float] = []
    classical_diff = 0.0
    snapshots: List[FlowNetwork] = []
    for batch in batches:
        warm_t, delta = _timed(lambda: classical_session.push(list(batch)))
        snapshot = classical_session.snapshot()
        snapshots.append(snapshot)
        cold_t, cold = _timed(lambda: get_algorithm("dinic").solve(snapshot))
        classical_warm.append(warm_t)
        classical_cold.append(cold_t)
        classical_diff = max(
            classical_diff,
            abs(delta.flow_value - cold.flow_value)
            / max(1.0, abs(cold.flow_value)),
        )

    analog_solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
    analog_session = StreamingSession(
        network, backend="analog", analog_solver=analog_solver
    )
    analog_cold: List[float] = []
    analog_warm: List[float] = []
    analog_diff = 0.0
    warm_refactorizations = 0
    for batch, snapshot in zip(batches, snapshots):
        warm_t, adelta = _timed(lambda: analog_session.push(list(batch)))
        cold_solver = AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)
        cold_t, acold = _timed(
            lambda: cold_solver.resolve(cold_solver.compile(snapshot))
        )
        analog_warm.append(warm_t)
        analog_cold.append(cold_t)
        analog_diff = max(
            analog_diff,
            abs(adelta.flow_value - acold.flow_value)
            / max(1.0, abs(acold.flow_value)),
        )
        warm_refactorizations += adelta.result.detail.dc_solution.refactorizations

    classical_warm_s = float(reducer(classical_warm))
    classical_cold_s = float(reducer(classical_cold))
    analog_warm_s = float(reducer(analog_warm))
    analog_cold_s = float(reducer(analog_cold))
    return {
        "workload": workload.name,
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "delta_edges": max(1, round(delta_fraction * network.num_edges)),
        "steps": steps,
        "classical_cold_s": classical_cold_s,
        "classical_warm_s": classical_warm_s,
        "classical_speedup": classical_cold_s / classical_warm_s,
        "classical_value_diff": classical_diff,
        "analog_cold_s": analog_cold_s,
        "analog_warm_s": analog_warm_s,
        "analog_speedup": analog_cold_s / analog_warm_s,
        "analog_value_diff": analog_diff,
        "analog_warm_refactorizations": warm_refactorizations,
        "warm_solves": analog_session.warm_solves,
        "cold_solves": analog_session.cold_solves,
    }


#: :func:`measure_streaming_grid`: pushes per run (its p99 has ten pushes
#: beyond it), the share of edges one push edits, and every how many
#: revisions one is also solved cold.
GRID_PUSHES = 1000
GRID_TOUCH = 0.01
GRID_COLD_EVERY = 10


def measure_streaming_grid(scale: float, seed: int = 20150601) -> Dict[str, object]:
    """Warm push latency on a real grid against cold kernel solves, one run.

    The grid is ``round(48 * scale)`` x ``round(180 * scale)`` (24x90 and
    6,324 edges at scale 0.5; at least 2x4), with capacities jittered by
    50%, streamed by a ``"dinic"`` session.  Each push edits
    :data:`GRID_TOUCH` of the edges, scaling each edit's capacity by
    ``exp(U(-0.25, 0.25))`` less a fifth of its log drift from the base,
    so edits compound without wandering off.  Every
    :data:`GRID_COLD_EVERY`-th revision is also solved cold by
    :class:`~repro.flows.kernel.KernelDinic`, right after its push.

    Returns
    -------
    dict
        Grid size, the warm p50 / p99 / max push times (seconds), the
        median and quartiles of the cold solves, the share of pushes that
        stayed warm, the level searches a push ran after its repair
        (:attr:`~repro.flows.incremental.IncrementalMaxFlow.level_searches`
        per push) and the worst warm-vs-cold relative value gap.
    """
    rows, cols = max(2, round(48 * scale)), max(4, round(180 * scale))
    rng = random.Random(seed)
    network = grid_graph(rows, cols, seed=seed, capacity_jitter=0.5)
    base = [edge.capacity for edge in network.edges()]
    capacities = list(base)
    edits = max(1, round(GRID_TOUCH * len(base)))
    session = StreamingSession(network, backend="dinic")
    warm: List[float] = []
    cold: List[float] = []
    warm_pushes = 0
    value_diff = 0.0
    for step in range(GRID_PUSHES):
        batch = []
        for index in rng.sample(range(len(base)), edits):
            drift = math.log(capacities[index] / base[index])
            capacities[index] *= math.exp(rng.uniform(-0.25, 0.25) - 0.2 * drift)
            batch.append(CapacityUpdate(index, capacities[index]))
        elapsed, delta = _timed(lambda: session.push(batch))
        warm.append(elapsed)
        warm_pushes += delta.warm
        if step % GRID_COLD_EVERY == 0:
            snapshot = session.snapshot()
            elapsed, result = _timed(lambda: KernelDinic().solve(snapshot))
            cold.append(elapsed)
            value_diff = max(
                value_diff,
                abs(delta.flow_value - result.flow_value) / max(1.0, abs(result.flow_value)),
            )
    searches = session._incremental.level_searches  # the session's one engine
    warm_q = np.percentile(warm, [50, 99])
    cold_q = np.percentile(cold, [25, 50, 75])
    return {
        "workload": f"grid_{rows}x{cols}",
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "delta_edges": edits,
        "pushes": GRID_PUSHES,
        "warm_p50_s": float(warm_q[0]),
        "warm_p99_s": float(warm_q[1]),
        "warm_max_s": max(warm),
        "cold_kernel_s": float(cold_q[1]),
        "cold_kernel_q1_s": float(cold_q[0]),
        "cold_kernel_q3_s": float(cold_q[2]),
        "cold_samples": len(cold),
        "warm_frac": warm_pushes / GRID_PUSHES,
        "searches_per_push": searches / GRID_PUSHES,
        "value_diff": value_diff,
    }
