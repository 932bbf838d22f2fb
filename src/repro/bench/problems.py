"""Shared measurement harness for the problem-reduction subsystem.

One instance-selection + measurement implementation consumed by both
``benchmarks/bench_problems.py`` (pytest-enforced correctness/overhead
smoke) and ``tools/perf_gate.py --suite problems`` (the
``BENCH_problems.json`` perf-trajectory record), mirroring
:mod:`repro.bench.assembly` / :mod:`repro.bench.streaming`.

Each problem class builds one deterministic instance at the requested
scale, routes it through :class:`~repro.service.problems.ProblemSolveService`
on a classical backend, and records the stage split the service reports —
reduction build, backend solve, decode + certificate — plus the reduced
network size and the certificate status.  The interesting trajectory is the
*overhead fraction*: how much of the end-to-end time the reduction layer
adds on top of the raw max-flow solve.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from ..flows.registry import DEFAULT_EXACT_ALGORITHM
from ..problems import (
    BipartiteMatching,
    DisjointPaths,
    ImageSegmentation,
    ProjectSelection,
)
from ..problems.base import Problem
from ..service.problems import ProblemSolveService

__all__ = ["PROBLEM_CLASSES", "problems_workload", "measure_problems_class"]

#: Problem classes measured by the harness (one per reduction).
PROBLEM_CLASSES = ("matching", "paths", "segmentation", "closure")

_BASE_SEED = 20150608


def problems_workload(kind: str, scale: float = 1.0) -> Problem:
    """Deterministic benchmark instance of one problem class.

    ``scale`` stretches the instance the same way the Fig. 10 sweeps are
    stretched: 1.0 gives a few-hundred-edge reduced network per class,
    small smoke scales shrink proportionally (with sane floors).
    """
    # str hashes are salted per process; mix the class name stably instead.
    rng = random.Random(_BASE_SEED + sum(ord(c) for c in kind))
    if kind == "matching":
        side = max(4, int(round(32 * scale)))
        density = min(0.6, 6.0 / side)
        pairs = [
            (i, j)
            for i in range(side)
            for j in range(side)
            if rng.random() < density
        ] or [(0, 0)]
        return BipartiteMatching(list(range(side)), list(range(side)), pairs)
    if kind == "paths":
        mids = max(4, int(round(24 * scale)))
        density = min(0.5, 5.0 / mids)
        edges = (
            [("s", m) for m in range(mids) if rng.random() < 0.7]
            + [(m, "t") for m in range(mids) if rng.random() < 0.7]
            + [
                (a, b)
                for a in range(mids)
                for b in range(mids)
                if a != b and rng.random() < density
            ]
        ) or [("s", 0), (0, "t")]
        return DisjointPaths(edges, vertex_disjoint=True)
    if kind == "segmentation":
        height = max(2, int(round(8 * scale)))
        width = 2 * height
        return ImageSegmentation(
            [[rng.random() for _ in range(width)] for _ in range(height)],
            [[rng.random() for _ in range(width)] for _ in range(height)],
            smoothness=0.3,
        )
    if kind == "closure":
        count = max(4, int(round(40 * scale)))
        density = min(0.4, 3.0 / count)
        return ProjectSelection(
            {i: rng.uniform(-6.0, 6.0) for i in range(count)},
            [
                (i, j)
                for i in range(count)
                for j in range(count)
                if i != j and rng.random() < density
            ],
        )
    raise ValueError(f"unknown problem class {kind!r}; known: {PROBLEM_CLASSES}")


def measure_problems_class(
    kind: str,
    scale: float = 1.0,
    repeats: int = 3,
    reducer: Callable = min,
    backend: str = DEFAULT_EXACT_ALGORITHM,
) -> Dict[str, object]:
    """Measure one problem class end-to-end through the service.

    Returns a metrics dict: reduced-network size, per-stage times (reduced
    with ``reducer`` over ``repeats`` runs), the certified objective, the
    certificate status and the reduction-layer overhead fraction
    ``(reduce + decode) / total``.
    """
    problem = problems_workload(kind, scale)
    service = ProblemSolveService()
    reduce_times, solve_times, decode_times, totals = [], [], [], []
    solved = None
    for _ in range(max(1, repeats)):
        solved = service.solve(problem, backend=backend)
        reduce_times.append(solved.report.reduce_time_s)
        solve_times.append(solved.report.solve_time_s)
        decode_times.append(solved.report.decode_time_s)
        totals.append(solved.report.wall_time_s)
    reduce_s = reducer(reduce_times)
    solve_s = reducer(solve_times)
    decode_s = reducer(decode_times)
    total_s = reducer(totals)
    return {
        "workload": f"{kind}-x{scale:g}",
        "kind": kind,
        "backend": backend,
        "num_vertices": solved.report.network_vertices,
        "num_edges": solved.report.network_edges,
        "objective": solved.value,
        "certified": solved.certified,
        "decode_source": solved.report.decode_source,
        "reduce_s": reduce_s,
        "solve_s": solve_s,
        "decode_s": decode_s,
        "total_s": total_s,
        "overhead_fraction": (reduce_s + decode_s) / total_s if total_s > 0 else 0.0,
    }
