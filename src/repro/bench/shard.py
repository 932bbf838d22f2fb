"""Shared measurement harness for the N-way sharding subsystem.

One instance-selection + measurement implementation consumed by both
``benchmarks/bench_shard.py`` (pytest-enforced thresholds) and
``tools/perf_gate.py --suite shard`` (the ``BENCH_shard.json``
perf-trajectory record), mirroring :mod:`repro.bench.assembly` and
:mod:`repro.bench.streaming`.

The scenario is the roadmap's "instance larger than one substrate": a
capacity-jittered grid (the image-segmentation/vision workload family dual
decomposition was designed for — R-MAT's hub vertices put almost every
vertex into the overlap band, which defeats *any* partitioner) is solved

* **cold** — one exact solve of the whole instance (the 1-shard
  reference, only possible when the instance fits one solver);
* **sequentially 2-way** — ``BatchSolveService(executor="serial")``
  solving on ``backend="sharded:dinic"`` with two shards, the paper's
  Section 6.4 flow;
* **N-way parallel** — the same request with ``shards=N`` on a
  ``BatchSolveService(executor="thread")``, whose pool the shard solves
  fan out over.

All three must agree on the cut value (to 1e-6, asserted on converged
runs).  The wall-clock comparison records both the end-to-end solve and
the derived per-iteration sweep time.  N-way wins come from two effects —
smaller per-shard solves (superlinear solver cost) and multi-core fan-out
— and are partly offset by extra coordination iterations (multiplier
information travels one overlap band per iteration), so the speedup
assertions in ``benchmarks/bench_shard.py`` apply from
``SPEEDUP_EDGE_FLOOR`` edges up, where the per-shard work dominates the
fixed per-iteration overhead even on few-core machines.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Tuple

from ..flows.mincut import min_cut
from ..graph.generators import grid_graph
from ..graph.network import FlowNetwork
from ..service.api import SolveResult
from ..service.batch import BatchSolveService

__all__ = [
    "shard_workload",
    "measure_shard_class",
    "measure_shard_rmat",
    "SHARD_CLASSES",
]

#: Instance classes: base (rows, cols, seed) of the capacity-jittered grid,
#: scaled by ``sqrt(scale)`` per dimension so ``|E|`` scales ~linearly.
SHARD_CLASSES: Dict[str, Tuple[int, int, int]] = {
    "band": (16, 60, 7),
    "wide": (24, 90, 1),
}


def shard_workload(regime: str, scale: float) -> Tuple[str, FlowNetwork]:
    """The canonical sharding workload for an instance class.

    Returns the workload name and the (deterministic) network.
    """
    try:
        rows, cols, seed = SHARD_CLASSES[regime]
    except KeyError:
        known = ", ".join(sorted(SHARD_CLASSES))
        raise ValueError(f"unknown instance class {regime!r}; known: {known}")
    factor = math.sqrt(scale)
    rows = max(3, round(rows * factor))
    cols = max(4, round(cols * factor))
    network = grid_graph(
        rows, cols, capacity=2.0, seed=seed, capacity_jitter=0.3
    )
    return f"grid_{rows}x{cols}", network


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _repeat(func, repeats: int, reducer):
    """Re-run a timed thunk, keeping the first result and reduced timing.

    The measured solves are deterministic, so only the wall-clock samples
    vary; they collapse with ``reducer`` (``min`` for noise-shedding bench
    assertions, ``statistics.median`` for recorded trajectories).
    """
    result, first = func()
    samples = [first]
    for _ in range(repeats - 1):
        _, again = func()
        samples.append(again)
    return result, float(reducer(samples))


def _bracket_ok(sharded: SolveResult, exact: float, tol: float = 1e-9) -> bool:
    """Every iteration's dual/feasible pair must bracket the exact value."""
    return all(
        dual <= exact + tol and feasible >= exact - tol
        for dual, feasible, _ in sharded.detail.history
    )


def _sharded_solve(
    executor: str, network: FlowNetwork, shards: int, max_iterations: int
):
    """A timed thunk: one ``sharded:dinic`` request on a batch service.

    The service is built outside the timing, so only the request is timed.
    """
    service = BatchSolveService(executor=executor)
    return lambda: _timed(
        lambda: service.solve(
            network,
            backend="sharded:dinic",
            shards=shards,
            max_iterations=max_iterations,
        )
    )


def measure_shard_class(
    regime: str,
    scale: float,
    shards: int = 4,
    max_iterations: int = 100,
    repeats: int = 1,
    reducer=min,
) -> Dict[str, object]:
    """Measure 1-shard cold vs sequential 2-way vs N-way parallel.

    Parameters
    ----------
    regime:
        ``"band"`` or ``"wide"`` (see :data:`SHARD_CLASSES`).
    scale:
        Workload scale (1.0 is the perf-gate size, 0.25 the bench default).
    shards:
        Shard count of the N-way parallel run.
    max_iterations:
        Coordinator iteration budget for both decomposed runs.
    repeats:
        Timing repetitions per path; the solves are deterministic, so only
        the timings vary and are collapsed with ``reducer`` (``min`` for
        noise-shedding benchmark assertions, ``statistics.median`` for the
        recorded perf trajectory).

    Returns
    -------
    dict
        Instance metadata, per-path values/iterations/times (seconds),
        derived per-iteration sweep times, the N-way-vs-2-way speedup, and
        the value-agreement / bound-bracketing checks.
    """
    name, network = shard_workload(regime, scale)

    exact_result, cold_s = _repeat(
        lambda: _timed(lambda: min_cut(network)), repeats, reducer
    )
    exact = exact_result.cut_value

    seq2, seq2_s = _repeat(
        _sharded_solve("serial", network, 2, max_iterations), repeats, reducer
    )
    parn, parn_s = _repeat(
        _sharded_solve("thread", network, shards, max_iterations), repeats, reducer
    )

    def rel_diff(value: float) -> float:
        return abs(value - exact) / max(1.0, abs(exact))

    return {
        "workload": name,
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "shards": shards,
        "exact_value": exact,
        "cold_s": cold_s,
        "seq2_value": seq2.flow_value,
        "seq2_iterations": seq2.detail.iterations,
        "seq2_converged": seq2.detail.converged,
        "seq2_s": seq2_s,
        "seq2_iter_s": seq2_s / max(1, seq2.detail.iterations),
        "parn_value": parn.flow_value,
        "parn_iterations": parn.detail.iterations,
        "parn_converged": parn.detail.converged,
        "parn_s": parn_s,
        "parn_iter_s": parn_s / max(1, parn.detail.iterations),
        "speedup": seq2_s / parn_s,
        "iter_speedup": (seq2_s / max(1, seq2.detail.iterations))
        / (parn_s / max(1, parn.detail.iterations)),
        "seq2_value_diff": rel_diff(seq2.flow_value),
        "parn_value_diff": rel_diff(parn.flow_value),
        "seq2_bracket_ok": _bracket_ok(seq2, exact),
        "parn_bracket_ok": _bracket_ok(parn, exact),
    }


def measure_shard_rmat(
    scale: float,
    shards: int = 4,
    max_iterations: int = 100,
    repeats: int = 1,
    reducer=min,
) -> Dict[str, object]:
    """N-way parallel vs 1-shard cold on the large Fig. 10 R-MAT instance.

    R-MAT's hub vertices pull most of the graph into every shard's overlap
    band, so decomposition cannot beat a cold solve *when the instance
    still fits one solver* — this record quantifies that coordination
    overhead (the price of scaling past one substrate) rather than a
    speedup: ``overhead`` is the N-way wall clock over the cold solve.
    Value agreement with the cold solve is recorded alongside.  Timings
    repeat ``repeats`` times and collapse with ``reducer``.
    """
    from .assembly import assembly_workload

    workload = assembly_workload("dense", scale)
    network = workload.generate()

    exact_result, cold_s = _repeat(
        lambda: _timed(lambda: min_cut(network)), repeats, reducer
    )
    exact = exact_result.cut_value
    parn, parn_s = _repeat(
        _sharded_solve("thread", network, shards, max_iterations), repeats, reducer
    )
    return {
        "workload": workload.name,
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "shards": shards,
        "exact_value": exact,
        "cold_s": cold_s,
        "parn_value": parn.flow_value,
        "parn_iterations": parn.detail.iterations,
        "parn_converged": parn.detail.converged,
        "parn_s": parn_s,
        "overhead": parn_s / max(cold_s, 1e-12),
        "parn_value_diff": abs(parn.flow_value - exact)
        / max(1.0, abs(exact)),
        "overlap_fraction": (
            parn.detail.partition_summary["overlap"]
            / max(1, network.num_vertices)
        ),
    }
