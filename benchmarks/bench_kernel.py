"""Flat-array kernel benchmark: KernelDinic vs the pure-Python reference.

Measures, on the conformance-corpus instance families (via the shared
:mod:`repro.bench.kernel` harness), one reference Dinic solve against one
:class:`~repro.flows.kernel.KernelDinic` solve of the identical network.

Thresholds:

* value agreement: kernel and reference flow values must match to 1e-9
  relative on every class, at every scale — the speedup is meaningless if
  the answers differ;
* speedup, gated per class from that class's edge floor up (below it,
  smoke scales only exercise the machinery):

  - ``grid`` must clear ``REPRO_KERNEL_MIN_SPEEDUP`` (default 10x) from
    ``REPRO_KERNEL_EDGE_FLOOR`` edges (default 10000).  Deep vision grids
    are where interpreter overhead dominates the reference; the
    default-scale 96x96 instance (real capacities, compiled core, one
    routed round) measured ~62x, leaving honest headroom over the floor
    for CI wall-clock noise.
  - ``rmat`` must clear ``REPRO_KERNEL_MIN_SPEEDUP_RMAT`` (default 1.5x)
    from ``REPRO_KERNEL_EDGE_FLOOR_RMAT`` edges (default 4000).  Its
    integral capacities take one exact compiled round.
  - ``bipartite`` is recorded without a floor: matching-style instances
    are shallow, so the reference loses little; the compiled core's one
    exact round now beats it, where the lockstep core measured ~0.6-1.0x.
"""

from __future__ import annotations

import os

from repro.bench import KERNEL_CLASSES, format_table, measure_kernel_class
from conftest import bench_scale


def _floors() -> dict:
    """Per-class (edge floor, speedup floor) gates; see the module docstring."""
    return {
        "grid": (
            int(os.environ.get("REPRO_KERNEL_EDGE_FLOOR", "10000")),
            float(os.environ.get("REPRO_KERNEL_MIN_SPEEDUP", "10.0")),
        ),
        "rmat": (
            int(os.environ.get("REPRO_KERNEL_EDGE_FLOOR_RMAT", "4000")),
            float(os.environ.get("REPRO_KERNEL_MIN_SPEEDUP_RMAT", "1.5")),
        ),
    }


def _as_row(regime: str, metrics: dict) -> dict:
    return {
        "instance": f"{regime}:{metrics['workload']}",
        "|V|": metrics["num_vertices"],
        "|E|": metrics["num_edges"],
        "dinic_ms": round(metrics["dinic_s"] * 1e3, 2),
        "kernel_ms": round(metrics["kernel_s"] * 1e3, 2),
        "speedup": round(metrics["speedup"], 2),
        "sweeps": metrics["kernel_sweeps"],
        "value_diff": float(f"{metrics['value_diff']:.2e}"),
    }


def _run_suite():
    scale = bench_scale()
    return [
        (regime, measure_kernel_class(regime, scale, repeats=3))
        for regime in KERNEL_CLASSES
    ]


def test_kernel_vs_reference_dinic(benchmark):
    results = benchmark.pedantic(_run_suite, rounds=1, iterations=1)
    rows = [_as_row(regime, metrics) for regime, metrics in results]

    print()
    print(format_table(rows, title="Flat-array kernel vs reference Dinic"))

    floors = _floors()
    for regime, metrics in results:
        assert metrics["value_diff"] <= 1e-9, (
            f"{regime}: kernel flow value diverged from the reference "
            f"({metrics['value_diff']:.2e} relative)"
        )
        if regime not in floors:
            continue  # bipartite: recorded, not gated
        edge_floor, speedup_floor = floors[regime]
        if metrics["num_edges"] < edge_floor:
            continue  # smoke scales only exercise the machinery
        assert metrics["speedup"] >= speedup_floor, (
            f"{regime}: kernel only {metrics['speedup']:.2f}x faster than "
            f"reference Dinic on {metrics['workload']} (need >= {speedup_floor}x)"
        )
