#!/usr/bin/env python
"""Perf-regression sentinel: judge a fresh run against the BENCH trajectory.

``tools/perf_gate.py`` records; this tool *judges*.  For each suite it
takes a candidate report — either a fresh in-memory run (``--run``) or a
saved report file (``--candidate``) — and compares the suite's tracked
timing metrics against the best same-scale entry in the committed
``BENCH_*.json`` history (the flat latest-run keys count as the newest
entry).  A metric regresses when::

    candidate_ms > tolerance * best_same_scale_baseline_ms

and any regression makes the exit status nonzero, so ``make bench-check``
can hold the line in CI.  Comparisons are strictly same-scale: a smoke run
is never judged against a full-scale record.  Suites with no same-scale
history pass as ``new-baseline`` — the committed record simply has nothing
to defend yet.

The default tolerance (1.6x) is deliberately loose: BENCH medians come
from shared, noisy CI hosts, and the sentinel's job is catching real
slowdowns (an accidental O(n^2), a dropped cache), not 10 % jitter.
Override per run with ``--tolerance``.

Usage::

    PYTHONPATH=src python tools/bench_watch.py --suite all --run \
        --scale 0.05 --repeats 1
    PYTHONPATH=src python tools/bench_watch.py --suite kernel \
        --candidate fresh_kernel.json
    python tools/bench_watch.py --list-suites

Nothing is ever written: the sentinel reads committed records and prints a
verdict table (``--json`` for a machine-readable document).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perf_gate  # noqa: E402

#: Default regression tolerance: candidate/baseline ratios above this fail.
DEFAULT_TOLERANCE = 1.6


def extract_metrics(report: dict, paths: Sequence[str]) -> Dict[str, float]:
    """Resolve tracked ``paths`` in ``report`` to ``{flat.path: value}``.

    ``*`` segments expand over the dict keys present at that level, so the
    sentinel follows whatever instance classes a record actually has;
    missing paths are silently absent (a suite may gain classes over time).
    """
    values: Dict[str, float] = {}
    for path in paths:
        frontier = [("", report)]
        for segment in path.split("."):
            grown: List[tuple] = []
            for prefix, node in frontier:
                if not isinstance(node, dict):
                    continue
                keys = sorted(node) if segment == "*" else [segment]
                for key in keys:
                    if key in node:
                        flat = f"{prefix}.{key}" if prefix else key
                        grown.append((flat, node[key]))
            frontier = grown
        for flat, value in frontier:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values[flat] = float(value)
    return values


def trajectory(record: dict) -> List[dict]:
    """The record's runs, oldest first: history entries, else the flat keys."""
    history = [e for e in record.get("history", []) if isinstance(e, dict)]
    if history:
        return history
    flat = {k: v for k, v in record.items() if k != "history"}
    return [flat] if flat else []


def baseline_metrics(
    record: dict, paths: Sequence[str], scale: Optional[float]
) -> Dict[str, float]:
    """Best (minimum) value per tracked metric across same-scale runs."""
    best: Dict[str, float] = {}
    for entry in trajectory(record):
        if scale is not None and entry.get("scale") != scale:
            continue
        for flat, value in extract_metrics(entry, paths).items():
            if flat not in best or value < best[flat]:
                best[flat] = value
    return best


def judge_suite(
    suite: str, record: dict, candidate: dict, tolerance: float
) -> List[dict]:
    """Verdict rows for one suite's candidate report vs its committed record."""
    paths = perf_gate.SUITES[suite].tracked
    scale = candidate.get("scale")
    candidate_values = extract_metrics(candidate, paths)
    baselines = baseline_metrics(record, paths, scale)
    rows: List[dict] = []
    for flat in sorted(candidate_values):
        value = candidate_values[flat]
        base = baselines.get(flat)
        row = {
            "suite": suite,
            "metric": flat,
            "scale": scale,
            "candidate_ms": round(value, 3),
            "baseline_ms": round(base, 3) if base is not None else None,
            "ratio": None,
            "tolerance": tolerance,
            "status": "new-baseline",
        }
        if base is not None:
            ratio = value / base if base > 0 else float("inf")
            row["ratio"] = round(ratio, 3)
            row["status"] = "regressed" if ratio > tolerance else "ok"
        rows.append(row)
    if not rows:
        rows.append({
            "suite": suite,
            "metric": "(none)",
            "scale": scale,
            "candidate_ms": None,
            "baseline_ms": None,
            "ratio": None,
            "tolerance": tolerance,
            "status": "skipped",
        })
    return rows


def _fmt(value, width: int) -> str:
    if value is None:
        text = "-"
    elif isinstance(value, float):
        text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width)


def print_verdicts(rows: List[dict]) -> None:
    header = (
        f"{'suite':<11} {'metric':<38} {'candidate':>10} "
        f"{'baseline':>10} {'ratio':>7}  status"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['suite']:<11} {row['metric']:<38} "
            f"{_fmt(row['candidate_ms'], 10)} {_fmt(row['baseline_ms'], 10)} "
            f"{_fmt(row['ratio'], 7)}  {row['status']}"
        )


def _fresh_report(suite: str, scale: float, repeats: int) -> dict:
    """Run the suite's perf_gate builder in-memory (nothing written)."""
    args = argparse.Namespace(scale=scale, repeats=repeats)
    return perf_gate.SUITES[suite].builder(args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="all",
                        help="suite to judge: "
                             f"{', '.join(sorted(perf_gate.SUITES))}, or 'all' "
                             "(default all)")
    parser.add_argument("--list-suites", action="store_true",
                        help="print the watched suites and their metrics")
    parser.add_argument("--candidate", type=Path, default=None,
                        help="saved report JSON to judge (single --suite only); "
                             "default is a fresh --run")
    parser.add_argument("--run", action="store_true",
                        help="build the candidate by running the suite fresh "
                             "(the default when --candidate is absent)")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="workload scale for fresh runs (default 0.25); "
                             "judged only against same-scale history")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions for fresh runs (default 3)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="candidate/baseline ratio above which a metric "
                             f"regresses (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--json", action="store_true",
                        help="emit the verdict rows as a JSON document")
    args = parser.parse_args(argv)

    if args.list_suites:
        for name in sorted(perf_gate.SUITES):
            print(f"{name}\t-> {', '.join(perf_gate.SUITES[name].tracked)}")
        return 0
    if args.suite != "all" and args.suite not in perf_gate.SUITES:
        parser.error(
            f"unknown suite {args.suite!r}; valid suites: "
            f"{', '.join(sorted(perf_gate.SUITES))}, or 'all'"
        )
    if args.tolerance <= 1.0:
        parser.error("--tolerance must exceed 1.0")
    suites = tuple(sorted(perf_gate.SUITES)) if args.suite == "all" else (args.suite,)
    if args.candidate is not None and len(suites) > 1:
        parser.error("--candidate needs a single --suite")

    rows: List[dict] = []
    for suite in suites:
        record_path = REPO_ROOT / perf_gate.SUITES[suite].output
        record = perf_gate._load_existing(record_path)
        if args.candidate is not None:
            candidate = json.loads(args.candidate.read_text())
        else:
            candidate = _fresh_report(suite, args.scale, args.repeats)
        rows.extend(judge_suite(suite, record, candidate, args.tolerance))

    regressions = [r for r in rows if r["status"] == "regressed"]
    if args.json:
        print(json.dumps({"verdicts": rows, "regressions": len(regressions)},
                         indent=2))
    else:
        print_verdicts(rows)
        print()
        if regressions:
            print(f"FAIL: {len(regressions)} metric(s) regressed beyond "
                  f"{args.tolerance}x the committed baseline")
        else:
            print("OK: no tracked metric regressed")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
