"""Streaming benchmark: warm incremental re-solves vs cold solves.

Measures, on Fig. 10-style R-MAT instances receiving successive 5%-of-edges
capacity-update batches (via the shared :mod:`repro.bench.streaming`
harness):

* **classical** — cold Dinic of each updated snapshot vs the incremental
  engine's warm repair/augmentation through a ``StreamingSession``;
* **analog** — cold compile + DC solve vs the warm re-solve (clamp-source
  re-programming + warm-started diode iteration against the cached base
  factorisation, diode flips as SMW rank-k corrections).

Thresholds (asserted whenever the instance is big enough that the per-push
floor — one maximality-certificate BFS / one RHS assembly — does not
dominate, i.e. >= 600 edges at the default ``REPRO_BENCH_SCALE`` of 0.25):
warm must be >= 3x faster than cold in *both* layers, classical warm/cold
flow values must agree to 1e-9, and analog warm/cold values to 1e-4 (the
substrate's bleed-leakage bound for degenerate-optimum instances — see
``docs/architecture.md``).  Instances of 400..600 edges still must show a
>= 1.5x win; tiny smoke scales only print the table.

The grid row streams 1,000 compounding 1%-of-edges edits into a real grid
(24x90 and 6,324 edges at ``REPRO_BENCH_SCALE=0.5``, the perfbench
``stream-edit`` base) and times each push against cold ``KernelDinic``
solves of sampled revisions interleaved in the same run, and prints the
level searches a push ran after its repair.  Every push must
stay warm and agree with the cold solves to 1e-9; from 6,000 edges up the
warm p99 must be at most the cold median (a push is never much slower
than a cold solve).  Below that size a push that must augment costs about
one cold solve, so the row is printed only.
"""

from __future__ import annotations

from repro.bench import format_table, measure_streaming_class, measure_streaming_grid
from conftest import bench_scale


def _as_row(regime: str, metrics: dict) -> dict:
    return {
        "instance": f"{regime}:{metrics['workload']}",
        "|E|": metrics["num_edges"],
        "delta": metrics["delta_edges"],
        "cls_cold_ms": round(metrics["classical_cold_s"] * 1e3, 3),
        "cls_warm_ms": round(metrics["classical_warm_s"] * 1e3, 3),
        "cls_speedup": round(metrics["classical_speedup"], 2),
        "cls_diff": float(f"{metrics['classical_value_diff']:.2e}"),
        "ana_cold_ms": round(metrics["analog_cold_s"] * 1e3, 2),
        "ana_warm_ms": round(metrics["analog_warm_s"] * 1e3, 2),
        "ana_speedup": round(metrics["analog_speedup"], 2),
        "ana_diff": float(f"{metrics['analog_value_diff']:.2e}"),
        "refacts": metrics["analog_warm_refactorizations"],
    }


def _run_suite():
    scale = bench_scale()
    return [
        _as_row(regime, measure_streaming_class(regime, scale, steps=5, reducer=min))
        for regime in ("dense", "sparse")
    ]


def test_streaming_warm_resolve(benchmark):
    rows = benchmark.pedantic(_run_suite, rounds=1, iterations=1)

    print()
    print(format_table(rows, title="Warm incremental re-solve vs cold solve"))

    for row in rows:
        if row["|E|"] < 400:
            continue  # smoke scales only exercise the machinery
        # Exactness: the classical pair are both exact algorithms.
        assert row["cls_diff"] <= 1e-9, (
            f"{row['instance']}: incremental flow diverged from cold solve "
            f"({row['cls_diff']:.2e} relative)"
        )
        # The analog pair solve the same circuit; degenerate interior optima
        # bound the agreement by the bleed leakage, not machine precision.
        assert row["ana_diff"] <= 1e-4, (
            f"{row['instance']}: warm analog re-solve diverged from cold "
            f"({row['ana_diff']:.2e} relative)"
        )
        floor = 3.0 if row["|E|"] >= 600 else 1.5
        assert row["cls_speedup"] >= floor, (
            f"{row['instance']}: classical warm re-solve only "
            f"{row['cls_speedup']}x faster (need >= {floor}x)"
        )
        assert row["ana_speedup"] >= floor, (
            f"{row['instance']}: analog warm re-solve only "
            f"{row['ana_speedup']}x faster (need >= {floor}x)"
        )


def test_grid_push_tail_within_a_cold_solve(benchmark):
    metrics = benchmark.pedantic(
        measure_streaming_grid, args=(bench_scale(),), rounds=1, iterations=1
    )
    row = {
        "instance": metrics["workload"],
        "|E|": metrics["num_edges"],
        "delta": metrics["delta_edges"],
        **{
            f"{key}_ms": round(metrics[f"{key}_s"] * 1e3, 3)
            for key in ("warm_p50", "warm_p99", "warm_max", "cold_kernel")
        },
        "searches": round(metrics["searches_per_push"], 3),
    }
    print()
    print(format_table([row], title="Warm push latency vs cold kernel solve (grid)"))

    assert metrics["warm_frac"] == 1.0
    assert metrics["value_diff"] <= 1e-9
    if metrics["num_edges"] >= 6000:
        assert metrics["warm_p99_s"] <= metrics["cold_kernel_s"], (
            f"{metrics['workload']}: warm p99 {row['warm_p99_ms']} ms above the "
            f"cold kernel median {row['cold_kernel_ms']} ms"
        )
