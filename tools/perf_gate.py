#!/usr/bin/env python
"""Performance gate: record perf-trajectory medians to BENCH_*.json files.

Runs the shared :mod:`repro.bench` harnesses — the same instance selection
and metrics the pytest thresholds in ``benchmarks/`` enforce — and writes
median timings so later PRs can track the perf trajectory::

    PYTHONPATH=src python tools/perf_gate.py [--suite NAME|all] [--list-suites]
                                             [--scale 0.25] [--repeats 5]

``--list-suites`` prints the registered suite names and their output files;
an unknown ``--suite`` fails fast with the same list.

``--suite assembly`` (the default) writes ``BENCH_assembly.json`` with, per
Fig. 10 instance class,

* ``unknowns`` / ``diodes`` — instance size,
* ``assembly_ms`` — median compiled ``matrix(states) + rhs()`` time,
* ``assembly_ms_legacy`` — the reference loop assembler on the same instance,
* ``dc_solve_ms`` — median end-to-end DC solve (compiled + SMW),
* ``dc_iteration_ms`` — ``dc_solve_ms`` divided by the diode-state iteration
  count (the headline "median iteration time"),
* ``assembly_speedup`` / ``dc_speedup`` / ``smw_speedup`` — compiled vs
  legacy, and SMW-enabled vs refactorise-always.

``--suite streaming`` writes ``BENCH_streaming.json`` with, per R-MAT
class, the median cold-vs-warm re-solve times of a 5%-of-edges
capacity-update stream (classical incremental repair and analog warm
re-solve), the speedups, and the worst warm/cold flow-value disagreement.
Its ``grid`` class is a real grid (24x90, 6,324 edges at the canonical
``--scale 0.5``) streamed 1,000 pushes of compounding 1%-of-edges edits: the
warm push p50 / p99 / max (``warm_p50_ms`` / ``warm_p99_ms`` /
``warm_max_ms``), the median and quartiles of cold ``KernelDinic`` solves of
every tenth revision interleaved in the same run (``cold_kernel_ms``,
``cold_kernel_q1_ms`` / ``cold_kernel_q3_ms``), whether the warm p99 is
at most that median (``p99_within_cold``) and the level searches a push
ran after its repair (``searches_per_push``).

``--suite shard`` writes ``BENCH_shard.json`` with, per grid instance
class, 1-shard cold vs sequential 2-way vs N-way parallel sharded solving
(values, iterations, end-to-end and per-iteration wall clock, speedups)
plus the R-MAT coordination-overhead record (N-way vs 1-shard cold on the
large dense Fig. 10 instance — R-MAT's hubs bloat every overlap band, so
this records the price of scaling past one substrate, not a win).  Use
``--scale 1.0`` (the ``make perf-gate-shard`` default) for instances large
enough that N-way parallel beats sequential 2-way.

``--suite problems`` writes ``BENCH_problems.json`` with, per reduction
class (matching / paths / segmentation / closure), the reduced-network
size, the per-stage medians (reduction build, backend solve, decode +
certificate), the reduction-layer overhead fraction and the certificate
status.

``--suite kernel`` writes ``BENCH_kernel.json`` with, per conformance-
corpus instance class (grid / rmat / bipartite), the median reference
Dinic and flat-array :class:`KernelDinic` wall clocks on the identical
network with each engine's quartiles (``*_q1_ms``/``*_q3_ms``, the noise
band), the speedup, the kernel's round or sweep count and the relative
flow-value disagreement; then both kernel cores forced (``compiled_*`` /
``lockstep_*`` medians and quartiles), the compiled core's rounds and
whether routing completed it (``compiled_rounds`` / ``compiled_routed``),
the core ``pick_core`` picks and whether the pick is within the other
core's band.  ``crossover`` records the same core fields on the sweep that
places the pick: real-capacity square grids (6.9k-77k edges at scale
0.25), an 8x1000 thin grid, and
real-capacity R-MAT and bipartite instances.  All repeats are interleaved, so host
drift does not land in the ratios.  The default scale (0.25) is the
headline size — the 96x96 vision grid; the kernel's >=10x floor is
enforced by ``benchmarks/bench_kernel.py``.

``--suite resilience`` writes ``BENCH_resilience.json`` with the fault-free
overhead of the resilient solve path (deadline scope + failover wrapper +
breaker bookkeeping) over the plain service backend on the kernel-corpus
grid, and the recovered-solve latency per injected fault class
(convergence / singular / error degrade to the certified reference Dinic;
stall records the deadline-abort lag).  The <5 % overhead ceiling is
enforced by ``benchmarks/bench_resilience.py``.

``--suite obs`` writes ``BENCH_obs.json`` with the observability layer's
cost on the kernel-corpus grid: the same ``kernel`` solve timed raw
(bare algorithm), through the service backend with obs disabled (the
default no-op path), and with obs enabled (live spans + per-sweep probe
counters), plus both overhead fractions against raw.  The ceilings
(disabled <2 %, enabled <10 %) are enforced by ``benchmarks/bench_obs.py``.

``--suite serving`` writes ``BENCH_serving.json`` with the asyncio front
door's sustained RPS and p50/p99 end-to-end latency under the seeded mixed
workload (duplicate-heavy grids, four tenants, mixed priorities), plus the
coalescing on-vs-off wall-clock speedup with actual backend-solve counts.
The >=2x coalescing floor is enforced by ``benchmarks/bench_serving.py``.

Every run also *appends* itself to a bounded ``history`` list inside the
output file (each entry is the run's report plus a ``recorded_at`` UTC
timestamp; the newest :data:`HISTORY_LIMIT` entries are kept).  The flat
top-level keys always describe the latest full run, so existing consumers
keep reading them unchanged; ``tools/bench_watch.py`` reads the history to
compare a fresh run against the committed trajectory.  ``--history-only``
appends the run to the history *without* replacing the flat latest-run
keys — useful for recording extra scales (e.g. smoke-scale entries for
``make bench-check``) without disturbing the headline record.

The gate only *records*; regression thresholds live in the corresponding
``benchmarks/bench_*.py`` where pytest can enforce them.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.kernel import measure_cores  # noqa: E402
from repro.graph import FlowNetwork, bipartite_graph, grid_graph, rmat_graph  # noqa: E402
from repro.bench import (  # noqa: E402
    KERNEL_CLASSES,
    PROBLEM_CLASSES,
    RESILIENCE_FAULT_CLASSES,
    measure_assembly_class,
    measure_kernel_class,
    measure_obs_overhead,
    measure_problems_class,
    measure_recovery_class,
    measure_resilience_overhead,
    measure_coalescing_speedup,
    measure_serving_mixed,
    measure_shard_class,
    measure_shard_rmat,
    measure_streaming_class,
    measure_streaming_grid,
)


def _as_record(metrics: dict) -> dict:
    return {
        "workload": metrics["workload"],
        "unknowns": metrics["unknowns"],
        "diodes": metrics["diodes"],
        "assembly_ms": round(metrics["assembly_compiled_s"] * 1e3, 4),
        "assembly_ms_legacy": round(metrics["assembly_legacy_s"] * 1e3, 4),
        "assembly_speedup": round(
            metrics["assembly_legacy_s"] / metrics["assembly_compiled_s"], 2
        ),
        "dc_solve_ms": round(metrics["dc_compiled_s"] * 1e3, 3),
        "dc_solve_ms_legacy": round(metrics["dc_legacy_s"] * 1e3, 3),
        "dc_iteration_ms": round(
            metrics["dc_compiled_s"] * 1e3 / max(1, metrics["iterations"]), 3
        ),
        "dc_iterations": metrics["iterations"],
        "dc_speedup": round(metrics["dc_legacy_s"] / metrics["dc_compiled_s"], 2),
        "smw_speedup": round(metrics["dc_no_smw_s"] / metrics["dc_compiled_s"], 2),
    }


def _as_streaming_record(metrics: dict) -> dict:
    return {
        "workload": metrics["workload"],
        "num_vertices": metrics["num_vertices"],
        "num_edges": metrics["num_edges"],
        "delta_edges": metrics["delta_edges"],
        "steps": metrics["steps"],
        "classical_cold_ms": round(metrics["classical_cold_s"] * 1e3, 4),
        "classical_warm_ms": round(metrics["classical_warm_s"] * 1e3, 4),
        "classical_speedup": round(metrics["classical_speedup"], 2),
        "classical_value_diff": float(f"{metrics['classical_value_diff']:.3e}"),
        "analog_cold_ms": round(metrics["analog_cold_s"] * 1e3, 3),
        "analog_warm_ms": round(metrics["analog_warm_s"] * 1e3, 3),
        "analog_speedup": round(metrics["analog_speedup"], 2),
        "analog_value_diff": float(f"{metrics['analog_value_diff']:.3e}"),
        "analog_warm_refactorizations": metrics["analog_warm_refactorizations"],
    }


def _as_grid_record(metrics: dict) -> dict:
    record = {
        key: metrics[key]
        for key in ("workload", "num_vertices", "num_edges", "delta_edges", "pushes",
                    "cold_samples")
    }
    for key in ("warm_p50", "warm_p99", "warm_max", "cold_kernel", "cold_kernel_q1",
                "cold_kernel_q3"):
        record[f"{key}_ms"] = round(metrics[f"{key}_s"] * 1e3, 3)
    record["p99_within_cold"] = bool(metrics["warm_p99_s"] <= metrics["cold_kernel_s"])
    record["warm_frac"] = round(metrics["warm_frac"], 4)
    record["searches_per_push"] = round(metrics["searches_per_push"], 4)
    record["value_diff"] = float(f"{metrics['value_diff']:.3e}")
    return record


def _as_shard_record(metrics: dict) -> dict:
    return {
        "workload": metrics["workload"],
        "num_vertices": metrics["num_vertices"],
        "num_edges": metrics["num_edges"],
        "shards": metrics["shards"],
        "cold_ms": round(metrics["cold_s"] * 1e3, 3),
        "seq2_ms": round(metrics["seq2_s"] * 1e3, 2),
        "seq2_iterations": metrics["seq2_iterations"],
        "seq2_iter_ms": round(metrics["seq2_iter_s"] * 1e3, 3),
        "parn_ms": round(metrics["parn_s"] * 1e3, 2),
        "parn_iterations": metrics["parn_iterations"],
        "parn_iter_ms": round(metrics["parn_iter_s"] * 1e3, 3),
        "speedup": round(metrics["speedup"], 2),
        "iter_speedup": round(metrics["iter_speedup"], 2),
        "seq2_value_diff": float(f"{metrics['seq2_value_diff']:.3e}"),
        "parn_value_diff": float(f"{metrics['parn_value_diff']:.3e}"),
        "converged": bool(metrics["seq2_converged"] and metrics["parn_converged"]),
    }


def _assembly_report(args) -> dict:
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "classes": {
            regime: _as_record(
                measure_assembly_class(
                    regime, args.scale, repeats=args.repeats,
                    reducer=statistics.median,
                )
            )
            for regime in ("dense", "sparse")
        },
    }


def _streaming_report(args) -> dict:
    classes = {
        regime: _as_streaming_record(
            measure_streaming_class(
                regime, args.scale, steps=args.repeats, reducer=statistics.median,
            )
        )
        for regime in ("dense", "sparse")
    }
    classes["grid"] = _as_grid_record(measure_streaming_grid(args.scale))
    return {
        "scale": args.scale,
        "steps": args.repeats,
        "delta_fraction": 0.05,
        "classes": classes,
    }


def _shard_report(args) -> dict:
    rmat = measure_shard_rmat(
        args.scale, repeats=args.repeats, reducer=statistics.median
    )
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "classes": {
            regime: _as_shard_record(
                measure_shard_class(
                    regime, args.scale, repeats=args.repeats,
                    reducer=statistics.median,
                )
            )
            for regime in ("band", "wide")
        },
        "rmat_overhead": {
            "workload": rmat["workload"],
            "num_edges": rmat["num_edges"],
            "shards": rmat["shards"],
            "cold_ms": round(rmat["cold_s"] * 1e3, 3),
            "parn_ms": round(rmat["parn_s"] * 1e3, 2),
            "parn_iterations": rmat["parn_iterations"],
            "overhead": round(rmat["overhead"], 2),
            "parn_value_diff": float(f"{rmat['parn_value_diff']:.3e}"),
            "overlap_fraction": round(rmat["overlap_fraction"], 3),
        },
    }


def _as_problems_record(metrics: dict) -> dict:
    return {
        "workload": metrics["workload"],
        "backend": metrics["backend"],
        "num_vertices": metrics["num_vertices"],
        "num_edges": metrics["num_edges"],
        "objective": round(float(metrics["objective"]), 4),
        "certified": bool(metrics["certified"]),
        "decode_source": metrics["decode_source"],
        "reduce_ms": round(metrics["reduce_s"] * 1e3, 4),
        "solve_ms": round(metrics["solve_s"] * 1e3, 4),
        "decode_ms": round(metrics["decode_s"] * 1e3, 4),
        "total_ms": round(metrics["total_s"] * 1e3, 4),
        "overhead_fraction": round(metrics["overhead_fraction"], 4),
    }


def _problems_report(args) -> dict:
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "classes": {
            kind: _as_problems_record(
                measure_problems_class(
                    kind, args.scale, repeats=args.repeats,
                    reducer=statistics.median,
                )
            )
            for kind in PROBLEM_CLASSES
        },
    }


def _as_core_record(metrics: dict) -> dict:
    record = {
        key: metrics[key]
        for key in ("pick", "pick_within_band", "compiled_rounds", "compiled_routed")
    }
    for core in ("compiled", "lockstep"):
        record[f"{core}_ms"] = round(metrics[f"{core}_s"] * 1e3, 3)
        record[f"{core}_q1_ms"] = round(metrics[f"{core}_quartiles_s"][0] * 1e3, 3)
        record[f"{core}_q3_ms"] = round(metrics[f"{core}_quartiles_s"][1] * 1e3, 3)
    return record


def _as_kernel_record(metrics: dict) -> dict:
    return {
        "workload": metrics["workload"],
        "num_vertices": metrics["num_vertices"],
        "num_edges": metrics["num_edges"],
        "dinic_ms": round(metrics["dinic_s"] * 1e3, 3),
        "kernel_ms": round(metrics["kernel_s"] * 1e3, 3),
        "dinic_q1_ms": round(metrics["dinic_quartiles_s"][0] * 1e3, 3),
        "dinic_q3_ms": round(metrics["dinic_quartiles_s"][1] * 1e3, 3),
        "kernel_q1_ms": round(metrics["kernel_quartiles_s"][0] * 1e3, 3),
        "kernel_q3_ms": round(metrics["kernel_quartiles_s"][1] * 1e3, 3),
        "speedup": round(metrics["speedup"], 2),
        "kernel_sweeps": metrics["kernel_sweeps"],
        "value_diff": float(f"{metrics['value_diff']:.3e}"),
        **_as_core_record(metrics),
    }


def _real_capacities(network: FlowNetwork, seed: int) -> FlowNetwork:
    """``network`` with every capacity times a seeded factor in [0.5, 1.5)."""
    rng = random.Random(seed)
    for edge in list(network.edges()):
        network.set_capacity(edge.index, edge.capacity * rng.uniform(0.5, 1.5))
    return network


def _kernel_crossover(scale: float):
    """``(name, network)`` of ``pick_core``'s crossover sweep, full size at 0.25."""
    factor = math.sqrt(scale / 0.25)
    for side in (48, 64, 72, 96, 128, 160):
        side = max(4, round(side * factor))
        yield f"grid_{side}x{side}", grid_graph(side, side, seed=7, capacity_jitter=0.5)
    cols = max(4, round(1000 * factor))
    yield f"grid_8x{cols}", grid_graph(8, cols, seed=7, capacity_jitter=0.5)
    for vertices, edges in ((1024, 5120), (4096, 20480)):
        vertices, edges = max(16, round(vertices * factor**2)), max(48, round(edges * factor**2))
        yield (f"rmat_{vertices}v_{edges}e",
               rmat_graph(vertices, edges, seed=11, integer_capacities=False))
    for side in (160, 320):
        side = max(4, round(side * factor))
        network = bipartite_graph(side, side, seed=13, connectivity=0.4)
        yield f"bipartite_{side}x{side}", _real_capacities(network, 5)


def _kernel_report(args) -> dict:
    crossover = {}
    for name, network in _kernel_crossover(args.scale):
        crossover[name] = {
            "num_edges": network.num_edges,
            **_as_core_record(measure_cores(network, repeats=args.repeats)),
        }
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "classes": {
            regime: _as_kernel_record(
                measure_kernel_class(
                    regime, args.scale, repeats=args.repeats,
                    reducer=statistics.median,
                )
            )
            for regime in KERNEL_CLASSES
        },
        "crossover": crossover,
    }


def _resilience_report(args) -> dict:
    # min, not median: the overhead is a ratio of near-identical solves and
    # contention only inflates samples (see repro.bench.resilience).
    overhead = measure_resilience_overhead(
        "grid", args.scale, repeats=args.repeats, reducer=min
    )
    recovery = {
        kind: measure_recovery_class(
            kind, args.scale, repeats=args.repeats, reducer=statistics.median
        )
        for kind in RESILIENCE_FAULT_CLASSES
    }
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "overhead": {
            "workload": overhead["workload"],
            "num_vertices": overhead["num_vertices"],
            "num_edges": overhead["num_edges"],
            "raw_ms": round(overhead["raw_s"] * 1e3, 3),
            "backend_ms": round(overhead["backend_s"] * 1e3, 3),
            "resilient_ms": round(overhead["resilient_s"] * 1e3, 3),
            "overhead_fraction": round(overhead["overhead_fraction"], 4),
            "value_diff": float(f"{overhead['value_diff']:.3e}"),
        },
        "recovery": {
            kind: {
                "workload": row["workload"],
                "outcome": row["outcome"],
                "fallback_backend": row["fallback_backend"],
                "trail_length": row["trail_length"],
                "baseline_ms": round(row["baseline_s"] * 1e3, 3),
                "recovered_ms": round(row["recovered_s"] * 1e3, 3),
                "recovery_ratio": round(row["recovery_ratio"], 2),
                "value_error": float(f"{row['value_error']:.3e}"),
            }
            for kind, row in recovery.items()
        },
    }


def _obs_report(args) -> dict:
    # min, not median: the overheads are ratios of near-identical solves
    # and contention only inflates samples (see repro.bench.obs).
    overhead = measure_obs_overhead(
        "grid", args.scale, repeats=args.repeats, reducer=min
    )
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "overhead": {
            "workload": overhead["workload"],
            "num_vertices": overhead["num_vertices"],
            "num_edges": overhead["num_edges"],
            "raw_ms": round(overhead["raw_s"] * 1e3, 3),
            "disabled_ms": round(overhead["disabled_s"] * 1e3, 3),
            "enabled_ms": round(overhead["enabled_s"] * 1e3, 3),
            "disabled_overhead_fraction": round(
                overhead["disabled_overhead_fraction"], 4
            ),
            "enabled_overhead_fraction": round(
                overhead["enabled_overhead_fraction"], 4
            ),
            "enabled_sweeps": overhead["enabled_sweeps"],
            "enabled_root_spans": overhead["enabled_root_spans"],
            "value_diff": float(f"{overhead['value_diff']:.3e}"),
        },
    }


def _serving_report(args) -> dict:
    mixed = measure_serving_mixed(args.scale, repeats=args.repeats)
    coalesce = measure_coalescing_speedup(args.scale)
    return {
        "scale": args.scale,
        "repeats": args.repeats,
        "mixed": {
            "workload": mixed["workload"],
            "num_vertices": mixed["num_vertices"],
            "num_edges": mixed["num_edges"],
            "requests": mixed["requests"],
            "workers": mixed["workers"],
            "wall_s": round(mixed["wall_s"], 4),
            "rps": round(mixed["rps"], 1),
            "p50_ms": round(mixed["p50_ms"], 3),
            "p99_ms": round(mixed["p99_ms"], 3),
            "coalesced": mixed["coalesced"],
            "shed": mixed["shed"],
            "failed": mixed["failed"],
        },
        "coalesce": {
            "workload": coalesce["workload"],
            "num_edges": coalesce["num_edges"],
            "waves": coalesce["waves"],
            "duplicates": coalesce["duplicates"],
            "on_ms": round(coalesce["on_s"] * 1e3, 2),
            "off_ms": round(coalesce["off_s"] * 1e3, 2),
            "on_solves": coalesce["on_solves"],
            "off_solves": coalesce["off_solves"],
            "speedup": round(coalesce["speedup"], 2),
        },
    }


#: Newest history entries kept per BENCH file; older runs fall off so the
#: committed records stay reviewably small.
HISTORY_LIMIT = 50


def _load_existing(output: Path) -> dict:
    """The committed record at ``output``, or ``{}`` when absent/corrupt."""
    if not output.exists():
        return {}
    try:
        existing = json.loads(output.read_text())
    except (OSError, ValueError):
        return {}
    return existing if isinstance(existing, dict) else {}


def _merge_history(existing: dict, report: dict, history_only: bool) -> dict:
    """Fold ``report`` into ``existing``: flat latest-run keys + history.

    The returned document is ``report``'s flat keys (or, under
    ``history_only`` with a pre-existing record, the *existing* flat keys)
    with a ``history`` list whose final entry is this run stamped with
    ``recorded_at``.  History entries never nest their own ``history``.
    """
    history = [e for e in existing.get("history", []) if isinstance(e, dict)]
    entry = {k: v for k, v in report.items() if k != "history"}
    entry["recorded_at"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    history.append(entry)
    history = history[-HISTORY_LIMIT:]
    flat = existing if history_only and existing else report
    merged = {k: v for k, v in flat.items() if k != "history"}
    merged["history"] = history
    return merged


class Suite(NamedTuple):
    """One registered suite.

    ``tracked`` lists the timings ``tools/bench_watch.py`` judges: dotted
    paths into the report, with ``*`` expanding over every key at that
    level (instance classes).  Only headline end-to-end timings are
    tracked — per-stage breakdowns shift with refactors without the total
    regressing.
    """

    builder: Callable[[argparse.Namespace], dict]
    output: str
    tracked: Tuple[str, ...]


#: Registered suites by name.
SUITES = {
    "assembly": Suite(_assembly_report, "BENCH_assembly.json",
                      ("classes.*.assembly_ms", "classes.*.dc_solve_ms")),
    "streaming": Suite(_streaming_report, "BENCH_streaming.json",
                       ("classes.*.classical_warm_ms", "classes.*.analog_warm_ms")),
    "shard": Suite(_shard_report, "BENCH_shard.json", ("classes.*.parn_ms",)),
    "problems": Suite(_problems_report, "BENCH_problems.json",
                      ("classes.*.total_ms",)),
    "kernel": Suite(_kernel_report, "BENCH_kernel.json", ("classes.*.kernel_ms",)),
    "resilience": Suite(_resilience_report, "BENCH_resilience.json",
                        ("overhead.resilient_ms",)),
    "obs": Suite(_obs_report, "BENCH_obs.json",
                 ("overhead.disabled_ms", "overhead.enabled_ms")),
    "serving": Suite(_serving_report, "BENCH_serving.json",
                     ("mixed.p50_ms", "mixed.p99_ms")),
}


def _core_line(row: dict) -> str:
    """Both kernel cores' medians and IQRs, the pick and its band check."""
    cores = ", ".join(
        f"{core} {row[f'{core}_ms']} ms "
        f"(IQR {row[f'{core}_q1_ms']}-{row[f'{core}_q3_ms']})"
        for core in ("compiled", "lockstep")
    )
    band = "within band" if row["pick_within_band"] else "SLOWER THAN THE OTHER CORE"
    routed = ", routed" if row["compiled_routed"] else ""
    return (
        f"{cores}; compiled {row['compiled_rounds']} rounds{routed}; "
        f"pick {row['pick']} ({band})"
    )


def _print_suite_summary(suite: str, report: dict) -> None:
    if suite == "kernel":
        for name, row in report["crossover"].items():
            print(f"  crossover {name} ({row['num_edges']} edges): {_core_line(row)}")
    if suite == "serving":
        mixed = report["mixed"]
        coalesce = report["coalesce"]
        print(
            f"  mixed ({mixed['workload']}, {mixed['requests']} requests, "
            f"{mixed['workers']} workers): {mixed['rps']} rps, "
            f"p50 {mixed['p50_ms']} ms, p99 {mixed['p99_ms']} ms, "
            f"{mixed['coalesced']} coalesced, {mixed['shed']} shed, "
            f"{mixed['failed']} failed"
        )
        print(
            f"  coalescing ({coalesce['workload']}): on {coalesce['on_ms']} ms "
            f"({coalesce['on_solves']} solves) vs off {coalesce['off_ms']} ms "
            f"({coalesce['off_solves']} solves) = {coalesce['speedup']}x"
        )
        return
    if suite == "obs":
        over = report["overhead"]
        print(
            f"  obs cost ({over['workload']}, {over['num_edges']} edges): "
            f"raw {over['raw_ms']} ms, disabled {over['disabled_ms']} ms "
            f"({over['disabled_overhead_fraction']:+.1%}), enabled "
            f"{over['enabled_ms']} ms ({over['enabled_overhead_fraction']:+.1%}, "
            f"{over['enabled_sweeps']} sweeps counted)"
        )
        return
    if suite == "resilience":
        over = report["overhead"]
        print(
            f"  fault-free ({over['workload']}, {over['num_edges']} edges): "
            f"resilient {over['resilient_ms']} ms vs backend "
            f"{over['backend_ms']} ms ({over['overhead_fraction']:+.1%} overhead)"
        )
        for kind, row in report["recovery"].items():
            tail = (
                f"-> {row['fallback_backend']}"
                if row["outcome"] == "degraded"
                else row["outcome"]
            )
            print(
                f"  {kind}: {row['recovered_ms']} ms vs {row['baseline_ms']} ms "
                f"fault-free ({row['recovery_ratio']}x, {tail})"
            )
        return
    for regime, row in report["classes"].items():
        if suite == "assembly":
            print(
                f"  {regime} ({row['workload']}, {row['unknowns']} unknowns): "
                f"assembly {row['assembly_ms']} ms ({row['assembly_speedup']}x), "
                f"dc iteration {row['dc_iteration_ms']} ms, "
                f"dc {row['dc_speedup']}x, smw {row['smw_speedup']}x"
            )
        elif suite == "streaming" and regime == "grid":
            within = "within" if row["p99_within_cold"] else "ABOVE"
            print(
                f"  grid ({row['workload']}, {row['num_edges']} edges, "
                f"{row['delta_edges']}-edge deltas, {row['pushes']} pushes): "
                f"warm p50 {row['warm_p50_ms']} ms, p99 {row['warm_p99_ms']} ms, "
                f"max {row['warm_max_ms']} ms; cold kernel {row['cold_kernel_ms']} ms "
                f"(IQR {row['cold_kernel_q1_ms']}-{row['cold_kernel_q3_ms']}); "
                f"p99 {within} the cold median; "
                f"{row['searches_per_push']} searches per push"
            )
        elif suite == "streaming":
            print(
                f"  {regime} ({row['workload']}, {row['num_edges']} edges, "
                f"{row['delta_edges']}-edge deltas): "
                f"classical {row['classical_warm_ms']} ms warm vs "
                f"{row['classical_cold_ms']} ms cold ({row['classical_speedup']}x), "
                f"analog {row['analog_warm_ms']} ms warm vs "
                f"{row['analog_cold_ms']} ms cold ({row['analog_speedup']}x)"
            )
        elif suite == "kernel":
            print(
                f"  {regime} ({row['workload']}, {row['num_edges']} edges): "
                f"kernel {row['kernel_ms']} ms "
                f"(IQR {row['kernel_q1_ms']}-{row['kernel_q3_ms']}) "
                f"vs dinic {row['dinic_ms']} ms "
                f"(IQR {row['dinic_q1_ms']}-{row['dinic_q3_ms']}) "
                f"({row['speedup']}x, {row['kernel_sweeps']} rounds or sweeps, "
                f"value diff {row['value_diff']:.1e}); {_core_line(row)}"
            )
        elif suite == "problems":
            print(
                f"  {regime} ({row['workload']}, |E|={row['num_edges']}): "
                f"reduce {row['reduce_ms']} ms + solve {row['solve_ms']} ms + "
                f"decode {row['decode_ms']} ms "
                f"({row['overhead_fraction']:.0%} reduction-layer overhead, "
                f"{'certified' if row['certified'] else 'CERTIFICATE FAILED'})"
            )
        else:
            print(
                f"  {regime} ({row['workload']}, {row['num_edges']} edges): "
                f"{row['shards']}-way parallel {row['parn_ms']} ms "
                f"({row['parn_iterations']} it) vs sequential 2-way "
                f"{row['seq2_ms']} ms ({row['seq2_iterations']} it): "
                f"{row['speedup']}x end-to-end, {row['iter_speedup']}x per iteration"
            )
    if suite == "shard":
        rmat = report["rmat_overhead"]
        print(
            f"  rmat overhead ({rmat['workload']}, {rmat['num_edges']} edges): "
            f"{rmat['shards']}-way {rmat['parn_ms']} ms vs cold {rmat['cold_ms']} ms "
            f"({rmat['overhead']}x overhead, {rmat['overlap_fraction']:.0%} overlap)"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="assembly",
                        help="which perf record to refresh: "
                             f"{', '.join(sorted(SUITES))}, or 'all' "
                             "(default assembly)")
    parser.add_argument("--list-suites", action="store_true",
                        help="print the registered suites and exit")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale (default 0.25)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions / update steps (median is kept)")
    parser.add_argument("--output", type=Path, default=None,
                        help="override the output path (single-suite runs only)")
    parser.add_argument("--history-only", action="store_true",
                        help="append this run to the record's history without "
                             "replacing the flat latest-run keys")
    args = parser.parse_args(argv)

    if args.list_suites:
        # The listing is machine-consumable output and must go to *stdout*
        # (``perf_gate.py --list-suites | grep ...``); only diagnostics may
        # use stderr.  Guarded by tests/test_perf_gate_cli.py.
        for name in sorted(SUITES):
            print(f"{name}\t-> {SUITES[name].output}", file=sys.stdout)
        sys.stdout.flush()
        return 0
    if args.suite != "all" and args.suite not in SUITES:
        parser.error(
            f"unknown suite {args.suite!r}; valid suites: "
            f"{', '.join(sorted(SUITES))}, or 'all'"
        )

    suites = tuple(sorted(SUITES)) if args.suite == "all" else (args.suite,)
    if args.output is not None and len(suites) > 1:
        parser.error("--output needs a single --suite")

    for suite in suites:
        report = SUITES[suite].builder(args)
        output = args.output or REPO_ROOT / SUITES[suite].output
        merged = _merge_history(_load_existing(output), report, args.history_only)
        output.write_text(json.dumps(merged, indent=2) + "\n")
        runs = len(merged["history"])
        print(f"wrote {output} ({runs} history run{'s' if runs != 1 else ''})")
        _print_suite_summary(suite, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
