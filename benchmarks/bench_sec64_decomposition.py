"""Section 6.4 — dual decomposition for instances larger than one substrate.

Splits min-cut instances into two overlapping subproblems, coordinates them
with subgradient multiplier updates, and compares the stitched cut against
the global minimum.  This is the flow the paper proposes for graphs that
exceed the substrate's capacity; each subproblem would be solved by
reprogramming the same physical crossbar, so the two shards run serially.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.flows import min_cut
from repro.graph import grid_graph, rmat_graph
from repro.shard import ShardCoordinator


def _run_decomposition():
    instances = [
        ("grid 4x8", grid_graph(4, 8, capacity=2.0, seed=2, capacity_jitter=0.3)),
        ("rmat 40", rmat_graph(40, 140, seed=9, max_capacity=20)),
        ("rmat 80", rmat_graph(80, 280, seed=10, max_capacity=20)),
    ]
    rows = []
    for name, network in instances:
        exact = min_cut(network).cut_value
        result = ShardCoordinator(num_shards=2, max_iterations=60).solve(
            network, executor="serial"
        )
        rows.append(
            {
                "instance": name,
                "|V|": network.num_vertices,
                "overlap vertices": result.partition_summary["overlap"],
                "exact min cut": round(exact, 2),
                "decomposed cut": round(result.cut_value, 2),
                "gap": f"{(result.cut_value - exact) / exact:.1%}" if exact else "0%",
                "iterations": result.iterations,
                "agreed": "yes" if result.converged else "no",
            }
        )
    return rows


def test_sec64_dual_decomposition(benchmark):
    rows = benchmark.pedantic(_run_decomposition, rounds=1, iterations=1)

    print()
    print(format_table(rows, title="Section 6.4: dual-decomposition min-cut"))

    for row in rows:
        assert row["decomposed cut"] >= row["exact min cut"] - 1e-6
        assert row["decomposed cut"] <= row["exact min cut"] * 1.8 + 1e-6
