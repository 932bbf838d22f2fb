"""Shared measurement harness for the flat-array flow kernel.

One instance-selection + measurement implementation consumed by both
``benchmarks/bench_kernel.py`` (pytest-enforced speedup floors) and
``tools/perf_gate.py --suite kernel`` (the ``BENCH_kernel.json``
perf-trajectory record), mirroring :mod:`repro.bench.shard`.

Each instance class is solved by the pure-Python reference Dinic, by
:class:`~repro.flows.kernel.KernelDinic` (whichever core
:func:`~repro.flows.kernel.pick_core` picks) and by each of the kernel's
two cores forced, on identical networks, with the repeats interleaved;
flow values must agree to 1e-9 relative.  The classes mirror the
conformance-corpus families at benchmark size:

* ``grid`` — the capacity-jittered vision grid.  At the default scale
  (0.25) it is a 96x96 square grid (27.5k edges, real capacities), which
  runs the compiled core in one routed round: the headline **>=10x**
  class;
* ``rmat`` — the paper's Fig. 10 R-MAT regime (1024 vertices, integral
  capacities: one exact compiled round);
* ``bipartite`` — matching-style instances (unit capacities, compiled).

:func:`measure_cores` times the two cores alone on any network;
``tools/perf_gate.py --suite kernel`` runs it on the sweep that places
:func:`~repro.flows.kernel.pick_core`'s crossover.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Tuple

from ..flows.dinic import Dinic
from ..flows.kernel import FlatResidual, KernelDinic, pick_core
from ..graph.generators import bipartite_graph, grid_graph, rmat_graph
from ..graph.network import FlowNetwork

__all__ = ["KERNEL_CLASSES", "kernel_workload", "measure_cores", "measure_kernel_class"]

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


def _core(name: str):
    """Solve through one kernel core, forced, flows materialised; returns the
    core's rounds or sweeps and whether routing completed the solve."""
    def solve(network: FlowNetwork) -> Tuple[int, bool]:
        flat = FlatResidual.from_network(network)
        steps = getattr(flat, f"{name}_max_flow")()
        network.flow_value(flat.edge_flows())
        return steps, flat.routed
    return solve


def _quartiles(samples):
    """``(q1, q3)`` of the timing samples; one sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _interleaved(arms, network: FlowNetwork, repeats: int):
    """Each arm's first answer and timings; the first arm alternates, so
    host drift lands on every arm alike."""
    results, samples = {}, {arm: [] for arm in arms}
    for round_index in range(repeats):
        for arm in list(arms)[:: 1 if round_index % 2 == 0 else -1]:
            start = time.perf_counter()
            result = arms[arm](network)
            samples[arm].append(time.perf_counter() - start)
            results.setdefault(arm, result)
    return results, samples


def measure_cores(network: FlowNetwork, repeats: int = 3, reducer=statistics.median) -> Dict[str, object]:
    """Both kernel cores, forced and interleaved, and the pick on ``network``.

    ``pick_within_band`` holds when the picked core's reduced time is at
    most the other core's upper quartile; ``compiled_rounds`` and
    ``compiled_routed`` are the compiled core's rounds and whether routing
    completed it.
    """
    results, samples = _interleaved(
        {c: _core(c) for c in ("compiled", "lockstep")}, network, repeats
    )
    pick = pick_core(FlatResidual.from_network(network))
    other = "lockstep" if pick == "compiled" else "compiled"
    rounds, routed = results["compiled"]
    record = {"pick": pick, "compiled_rounds": rounds, "compiled_routed": routed}
    for core in ("compiled", "lockstep"):
        record[f"{core}_s"] = float(reducer(samples[core]))
        record[f"{core}_quartiles_s"] = _quartiles(samples[core])
    record["pick_within_band"] = record[f"{pick}_s"] <= record[f"{other}_quartiles_s"][1]
    return record


def measure_kernel_class(
    regime: str,
    scale: float,
    repeats: int = 1,
    reducer=min,
) -> Dict[str, object]:
    """Measure reference Dinic vs the flat-array kernel on one class.

    ``regime`` is one of :data:`KERNEL_CLASSES` and ``scale`` the workload
    scale (1.0 the perf-gate size, 0.25 the bench default).  The solves are
    deterministic, so only the timings vary; ``repeats`` of them collapse
    with ``reducer`` (``min`` for benchmark assertions,
    ``statistics.median`` for the recorded trajectory).  Returns instance
    metadata, both engines' reduced times and quartiles (seconds), the
    speedup, the kernel's rounds or sweeps, the relative flow-value
    disagreement, and :func:`measure_cores` of the same network.
    """
    name, network = kernel_workload(regime, scale)
    arms = {"dinic": Dinic().solve, "kernel": KernelDinic().solve}
    results, samples = _interleaved(arms, network, repeats)
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
        **measure_cores(network, repeats, reducer),
    }
