"""Observability benchmark: telemetry overhead ceilings.

Measures, via the shared :mod:`repro.bench.obs` harness, the cost of the
tracing/metrics layer on the kernel-corpus grid instance: the same
``kernel`` solve timed raw (bare algorithm), through the service
backend with obs disabled (the default no-op path every caller pays),
and with obs enabled (live spans at the service boundaries plus a
registry counter bump per kernel discharge sweep).

Thresholds:

* disabled-mode overhead must stay under ``REPRO_OBS_MAX_DISABLED``
  (default 2 %) and enabled-mode under ``REPRO_OBS_MAX_ENABLED``
  (default 10 %), both against the raw algorithm, from
  ``REPRO_OBS_EDGE_FLOOR`` edges (default 10000; below it the per-solve
  wall clock is too small to resolve a percentage and only the
  machinery is exercised).  The measurement is retried up to three
  times and the best attempt is gated: contention on a shared machine
  can only inflate the measured ratios, never deflate them, so the
  minimum over attempts is the faithful estimate of the mechanism's
  cost (see :mod:`repro.bench.obs`);
* the enabled path must return the identical flow value and must have
  actually recorded telemetry (root spans and sweep counters > 0 — a
  silently-disabled "enabled" arm would gate nothing).
"""

from __future__ import annotations

import os

from repro.bench import format_table, measure_obs_overhead
from conftest import bench_scale


def _gates() -> tuple:
    return (
        int(os.environ.get("REPRO_OBS_EDGE_FLOOR", "10000")),
        float(os.environ.get("REPRO_OBS_MAX_DISABLED", "0.02")),
        float(os.environ.get("REPRO_OBS_MAX_ENABLED", "0.10")),
    )


def _run_suite():
    scale = bench_scale()
    _, max_disabled, max_enabled = _gates()
    return measure_obs_overhead(
        "grid",
        scale,
        repeats=5,
        disabled_target=max_disabled,
        enabled_target=max_enabled,
    )


def test_obs_overhead_ceilings(benchmark):
    overhead = benchmark.pedantic(_run_suite, rounds=1, iterations=1)

    print()
    print(format_table(
        [{
            "instance": overhead["workload"],
            "|E|": overhead["num_edges"],
            "raw_ms": round(overhead["raw_s"] * 1e3, 2),
            "disabled_ms": round(overhead["disabled_s"] * 1e3, 2),
            "enabled_ms": round(overhead["enabled_s"] * 1e3, 2),
            "disabled": f"{overhead['disabled_overhead_fraction']:+.1%}",
            "enabled": f"{overhead['enabled_overhead_fraction']:+.1%}",
            "sweeps": overhead["enabled_sweeps"],
        }],
        title="Telemetry overhead (kernel backend, raw baseline)",
    ))

    assert overhead["value_diff"] <= 1e-9, (
        "telemetry changed the flow value "
        f"({overhead['value_diff']:.2e} relative)"
    )
    assert overhead["enabled_sweeps"] > 0, "enabled arm counted no sweeps"
    assert overhead["enabled_root_spans"] > 0, "enabled arm recorded no spans"
    edge_floor, max_disabled, max_enabled = _gates()
    if overhead["num_edges"] >= edge_floor:
        assert overhead["disabled_overhead_fraction"] <= max_disabled, (
            f"disabled-mode obs overhead "
            f"{overhead['disabled_overhead_fraction']:.1%} exceeds "
            f"{max_disabled:.0%} on {overhead['workload']}"
        )
        assert overhead["enabled_overhead_fraction"] <= max_enabled, (
            f"enabled-mode obs overhead "
            f"{overhead['enabled_overhead_fraction']:.1%} exceeds "
            f"{max_enabled:.0%} on {overhead['workload']}"
        )
