"""Resilience benchmark: fault-free overhead ceiling + recovery latency.

Measures, via the shared :mod:`repro.bench.resilience` harness:

* the fault-free cost of the resilient solve path (ambient deadline scope
  + failover wrapper + breaker bookkeeping + fault-hook probes) against
  the plain service backend on the kernel-corpus grid instance, and
* the wall clock of one recovered solve per fault class — primary
  ``kernel`` poisoned with a persistent injected fault, degraded to
  the certified reference Dinic (``stall`` instead records the deadline
  abort, per the timeouts-are-terminal contract).

Thresholds:

* fault-free overhead must stay under ``REPRO_RESILIENCE_MAX_OVERHEAD``
  (default 5 %) from ``REPRO_RESILIENCE_EDGE_FLOOR`` edges (default
  10000; below it, smoke scales only exercise the machinery and the
  per-solve wall clock is too small to resolve a percentage).  The
  measurement is retried up to three times and the best attempt is
  gated: contention on a shared machine can only inflate the measured
  ratio, never deflate it, so the minimum over attempts is the faithful
  estimate of the mechanism's cost (see :mod:`repro.bench.resilience`);
* the resilient path must return the identical flow value, undegraded,
  with an empty failover trail;
* every raising fault class must recover to the exact reference value
  (1e-9 relative) with a non-empty trail;
* the ``stall`` abort must land within 1 s of its deadline budget — the
  cooperative cancellation lag, not the 60 s injected stall.
"""

from __future__ import annotations

import os

from repro.bench import (
    RESILIENCE_FAULT_CLASSES,
    format_table,
    measure_recovery_class,
    measure_resilience_overhead,
)
from repro.bench.resilience import STALL_ABORT_BUDGET_S
from conftest import bench_scale


def _overhead_gate() -> tuple:
    return (
        int(os.environ.get("REPRO_RESILIENCE_EDGE_FLOOR", "10000")),
        float(os.environ.get("REPRO_RESILIENCE_MAX_OVERHEAD", "0.05")),
    )


def _run_suite():
    scale = bench_scale()
    _, max_overhead = _overhead_gate()
    overhead = measure_resilience_overhead(
        "grid", scale, repeats=5, target=max_overhead
    )
    recoveries = [
        measure_recovery_class(kind, scale, repeats=1)
        for kind in RESILIENCE_FAULT_CLASSES
    ]
    return overhead, recoveries


def test_resilience_overhead_and_recovery(benchmark):
    overhead, recoveries = benchmark.pedantic(_run_suite, rounds=1, iterations=1)

    print()
    print(format_table(
        [{
            "instance": overhead["workload"],
            "|E|": overhead["num_edges"],
            "raw_ms": round(overhead["raw_s"] * 1e3, 2),
            "backend_ms": round(overhead["backend_s"] * 1e3, 2),
            "resilient_ms": round(overhead["resilient_s"] * 1e3, 2),
            "overhead": f"{overhead['overhead_fraction']:+.1%}",
        }],
        title="Fault-free resilience overhead (kernel backend)",
    ))
    print(format_table(
        [{
            "fault": row["fault"],
            "outcome": row["outcome"],
            "fallback": row["fallback_backend"] or "-",
            "baseline_ms": round(row["baseline_s"] * 1e3, 2),
            "recovered_ms": round(row["recovered_s"] * 1e3, 2),
            "ratio": round(row["recovery_ratio"], 2),
            "value_err": float(f"{row['value_error']:.2e}"),
        } for row in recoveries],
        title="Recovered-solve latency per fault class",
    ))

    assert overhead["value_diff"] <= 1e-9, (
        "resilient path changed the flow value "
        f"({overhead['value_diff']:.2e} relative)"
    )
    edge_floor, max_overhead = _overhead_gate()
    if overhead["num_edges"] >= edge_floor:
        assert overhead["overhead_fraction"] <= max_overhead, (
            f"fault-free resilience overhead {overhead['overhead_fraction']:.1%} "
            f"exceeds {max_overhead:.0%} on {overhead['workload']}"
        )

    for row in recoveries:
        if row["fault"] == "stall":
            assert row["outcome"] == "deadline-abort"
            assert row["recovered_s"] <= STALL_ABORT_BUDGET_S + 1.0, (
                f"deadline abort took {row['recovered_s']:.2f} s against a "
                f"{STALL_ABORT_BUDGET_S} s budget"
            )
        else:
            assert row["outcome"] == "degraded", row
            assert row["trail_length"] >= 1
            assert row["value_error"] <= 1e-9, (
                f"{row['fault']}: recovered value off by "
                f"{row['value_error']:.2e} relative"
            )
