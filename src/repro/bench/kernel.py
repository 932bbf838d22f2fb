"""Shared measurement harness for the flat-array flow kernel.

One instance-selection + measurement implementation consumed by both
``benchmarks/bench_kernel.py`` (pytest-enforced speedup floors) and
``tools/perf_gate.py --suite kernel`` (the ``BENCH_kernel.json``
perf-trajectory record), mirroring :mod:`repro.bench.shard`.

Each instance class is solved by the pure-Python reference Dinic and by
:class:`~repro.flows.kernel.KernelDinic` on identical networks; both flow
values must agree to 1e-9 relative, and the wall-clock ratio is the
recorded speedup.  The classes mirror the conformance-corpus families at
benchmark size:

* ``grid`` — the capacity-jittered vision grid (the ``BENCH_shard.json``
  workload family).  Deep square grids are where interpreter overhead per
  arc dominates the reference, and where the kernel's lockstep sweeps pay
  off most: this is the headline **>=10x** class.
* ``rmat`` — the paper's Fig. 10 R-MAT regime.  Hub-dominated instances
  solve in few Dinic phases, so the reference has less interpreter work to
  lose; the kernel still wins severalfold (floor 2x, a non-regression
  bound rather than a headline).
* ``bipartite`` — matching-style instances: shallow (3 levels), solved in
  one or two phases, so per-solve array setup eats most of the kernel's
  margin.  Measured ~0.6x at 2.7k edges and ~1.0x at 10k: recorded for
  the trajectory only, no floor — on this family the escape hatch costs
  nothing either way.

Class bases are sized so the *default* benchmark scale (0.25) lands on
the headline instances — the 96x96 grid (27.5k edges) and the 1024-vertex
R-MAT — rather than shrunken smoke variants.  The per-class floors live
in ``benchmarks/bench_kernel.py`` and are deliberately *below* the typical
measured speedups (the 96x96 grid runs ~65x, 64x64 ~27x, on an unloaded
machine; the speedup grows with depth x size) because shared CI machines
add +-50% wall-clock noise to these solves.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Tuple

from ..flows.dinic import Dinic
from ..flows.kernel import KernelDinic
from ..graph.generators import bipartite_graph, grid_graph, rmat_graph
from ..graph.network import FlowNetwork

__all__ = ["KERNEL_CLASSES", "kernel_workload", "measure_kernel_class"]

#: Instance classes at scale 1.0; per-dimension sizes scale by sqrt(scale)
#: (grid/bipartite) or linearly (rmat) so ``|E|`` scales ~linearly.
KERNEL_CLASSES = ("grid", "rmat", "bipartite")


def kernel_workload(regime: str, scale: float) -> Tuple[str, FlowNetwork]:
    """The canonical kernel-benchmark workload for an instance class."""
    factor = math.sqrt(scale)
    if regime == "grid":
        rows = max(4, round(192 * factor))
        cols = max(4, round(192 * factor))
        network = grid_graph(
            rows, cols, capacity=2.0, seed=7, capacity_jitter=0.3
        )
        return f"grid_{rows}x{cols}", network
    if regime == "rmat":
        vertices = max(16, round(4096 * scale))
        edges = max(48, round(20480 * scale))
        network = rmat_graph(vertices, edges, seed=11)
        return f"rmat_{vertices}v_{edges}e", network
    if regime == "bipartite":
        left = max(4, round(160 * factor))
        right = max(4, round(160 * factor))
        network = bipartite_graph(left, right, seed=13, connectivity=0.4)
        return f"bipartite_{left}x{right}", network
    known = ", ".join(KERNEL_CLASSES)
    raise ValueError(f"unknown instance class {regime!r}; known: {known}")


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _quartiles(samples):
    """``(q1, q3)`` of the timing samples; one sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def measure_kernel_class(
    regime: str,
    scale: float,
    repeats: int = 1,
    reducer=min,
) -> Dict[str, object]:
    """Measure reference Dinic vs the flat-array kernel on one class.

    The two engines' repeats are interleaved, and which runs first
    alternates, so host drift during the measurement lands on both sides
    of the speedup ratio alike.

    Parameters
    ----------
    regime:
        One of :data:`KERNEL_CLASSES`.
    scale:
        Workload scale (1.0 is the perf-gate size, 0.25 the bench default).
    repeats:
        Timing repetitions per solver; the solves are deterministic, so
        only the timings vary and collapse with ``reducer`` (``min`` for
        noise-shedding benchmark assertions, ``statistics.median`` for the
        recorded perf trajectory).

    Returns
    -------
    dict
        Instance metadata, both reduced wall clocks and both engines'
        timing quartiles (seconds), the speedup, the kernel's sweep count,
        and the relative flow-value disagreement.
    """
    name, network = kernel_workload(regime, scale)
    engines = {"dinic": Dinic, "kernel": KernelDinic}
    results: Dict[str, object] = {}
    samples: Dict[str, list] = {engine: [] for engine in engines}
    for round_index in range(repeats):
        order = list(engines) if round_index % 2 == 0 else list(engines)[::-1]
        for engine in order:
            result, seconds = _timed(lambda: engines[engine]().solve(network))
            results.setdefault(engine, result)
            samples[engine].append(seconds)
    reference, kernel = results["dinic"], results["kernel"]
    dinic_s = float(reducer(samples["dinic"]))
    kernel_s = float(reducer(samples["kernel"]))
    value_diff = abs(kernel.flow_value - reference.flow_value) / max(
        1.0, abs(reference.flow_value)
    )
    return {
        "workload": name,
        "num_vertices": network.num_vertices,
        "num_edges": network.num_edges,
        "flow_value": reference.flow_value,
        "dinic_s": dinic_s,
        "kernel_s": kernel_s,
        "dinic_quartiles_s": _quartiles(samples["dinic"]),
        "kernel_quartiles_s": _quartiles(samples["kernel"]),
        "speedup": dinic_s / max(kernel_s, 1e-12),
        "kernel_sweeps": kernel.iterations,
        "value_diff": value_diff,
    }
