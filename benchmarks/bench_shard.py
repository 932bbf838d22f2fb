"""Sharding benchmark: N-way parallel vs sequential 2-way decomposition.

Measures, on capacity-jittered grid instances (via the shared
:mod:`repro.bench.shard` harness):

* **1-shard cold** — one exact solve of the whole instance (the reference
  value; only possible when the instance fits one solver);
* **sequential 2-way** — a ``"sharded:dinic"`` request with two shards on
  ``BatchSolveService(executor="serial")`` (the paper's Section 6.4 flow);
* **N-way parallel** — four shards fanned out over the thread executor.

Thresholds:

* value agreement: on converged runs of >= 600-edge instances, both
  decomposed cut values must match the cold solve to 1e-6 relative, and
  the dual/feasible bounds must bracket it on *every* iteration;
* speedup: from the edge floor up (default 3000, override with
  ``REPRO_SHARD_EDGE_FLOOR``), N-way parallel end-to-end wall clock must
  beat sequential 2-way by ``REPRO_SHARD_MIN_SPEEDUP`` (default 1.1x).  Below the floor the fixed per-iteration overhead (stitching,
  residual cut extraction, pool dispatch) dominates the shrinking
  per-shard solves on few-core machines, and N-way pays more coordination
  iterations than 2-way — the harness records those sizes but does not
  gate on them.
"""

from __future__ import annotations

import os

from repro.bench import format_table, measure_shard_class
from conftest import bench_scale


def _min_speedup() -> float:
    return float(os.environ.get("REPRO_SHARD_MIN_SPEEDUP", "1.1"))


def _edge_floor() -> int:
    return int(os.environ.get("REPRO_SHARD_EDGE_FLOOR", "3000"))


def _as_row(regime: str, metrics: dict) -> dict:
    return {
        "instance": f"{regime}:{metrics['workload']}",
        "|E|": metrics["num_edges"],
        "N": metrics["shards"],
        "cold_ms": round(metrics["cold_s"] * 1e3, 2),
        "seq2_ms": round(metrics["seq2_s"] * 1e3, 1),
        "seq2_it": metrics["seq2_iterations"],
        "parN_ms": round(metrics["parn_s"] * 1e3, 1),
        "parN_it": metrics["parn_iterations"],
        "speedup": round(metrics["speedup"], 2),
        "it_speedup": round(metrics["iter_speedup"], 2),
        "seq2_diff": float(f"{metrics['seq2_value_diff']:.2e}"),
        "parN_diff": float(f"{metrics['parn_value_diff']:.2e}"),
        "conv": f"{metrics['seq2_converged']}/{metrics['parn_converged']}",
    }


def _run_suite():
    scale = bench_scale()
    return [
        (regime, measure_shard_class(regime, scale))
        for regime in ("band", "wide")
    ]


def test_shard_nway_vs_sequential(benchmark):
    results = benchmark.pedantic(_run_suite, rounds=1, iterations=1)
    rows = [_as_row(regime, metrics) for regime, metrics in results]

    print()
    print(format_table(rows, title="N-way parallel vs sequential 2-way decomposition"))

    for regime, metrics in results:
        edges = metrics["num_edges"]
        if edges < 600:
            continue  # smoke scales only exercise the machinery
        # Exactness: both decomposed paths must find the cold solve's cut
        # value on converged runs, and the bounds must bracket it always.
        assert metrics["seq2_converged"], f"{regime}: sequential 2-way did not converge"
        assert metrics["parn_converged"], f"{regime}: N-way did not converge"
        assert metrics["seq2_value_diff"] <= 1e-6, (
            f"{regime}: 2-way cut diverged from cold solve "
            f"({metrics['seq2_value_diff']:.2e} relative)"
        )
        assert metrics["parn_value_diff"] <= 1e-6, (
            f"{regime}: N-way cut diverged from cold solve "
            f"({metrics['parn_value_diff']:.2e} relative)"
        )
        assert metrics["seq2_bracket_ok"], f"{regime}: 2-way bounds failed to bracket"
        assert metrics["parn_bracket_ok"], f"{regime}: N-way bounds failed to bracket"
        if edges >= _edge_floor():
            floor = _min_speedup()
            assert metrics["speedup"] >= floor, (
                f"{regime}: N-way parallel only {metrics['speedup']:.2f}x faster "
                f"than sequential 2-way (need >= {floor}x)"
            )
