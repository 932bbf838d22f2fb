"""Solving instances larger than one substrate by N-way sharding.

A capacity-jittered grid (the vision-workload family dual decomposition was
designed for) is split into overlapping shards, each shard is solved
independently — here with exact Dinic (``"sharded:dinic"``); name
``"sharded:analog"`` for the substrate pipeline with warm re-solves — and
the dual coordinator stitches the shard cuts into a globally optimal one,
bracketing the optimum from both sides on every subgradient iteration.
Sharding is just a backend: the request takes the batch service's one
solve path, so deadlines and failover apply to it like to any other.

Run with defaults (16x60 grid, 4 shards)::

    PYTHONPATH=src python examples/sharded_solving.py
"""

from __future__ import annotations

from repro.bench import format_table
from repro.flows import min_cut
from repro.graph import grid_graph
from repro.service import BatchSolveService, SolveRequest


def main(
    rows: int = 16,
    cols: int = 60,
    shards: int = 4,
    seed: int = 7,
    max_iterations: int = 100,
) -> None:
    """Partition, coordinate and compare against the exact min cut."""
    network = grid_graph(rows, cols, capacity=2.0, seed=seed, capacity_jitter=0.3)
    print(
        f"instance: {rows}x{cols} grid, |V|={network.num_vertices}, "
        f"|E|={network.num_edges}"
    )

    exact = min_cut(network)
    print(f"exact min cut (1-shard solve): {exact.cut_value:.6f}")

    service = BatchSolveService(executor="thread")
    report = service.solve_batch(
        [
            SolveRequest(
                network=network,
                backend="sharded:dinic",
                options={"shards": shards, "max_iterations": max_iterations},
                reference_value=exact.cut_value,
            )
        ]
    )
    result = report.results[0]
    outcome = result.detail

    print()
    print(format_table(outcome.shard_stats, title=f"{shards}-way sharded solve"))
    print()
    print("bound trajectory (dual lower bound -> stitched upper bound):")
    trajectory = outcome.history
    steps = max(1, len(trajectory) // 8)
    for i in range(0, len(trajectory), steps):
        dual, feasible, disagreements = trajectory[i]
        print(
            f"  iteration {i + 1:3d}: {dual:10.4f} <= {exact.cut_value:.4f} "
            f"<= {feasible:10.4f}  ({disagreements} overlap disagreements)"
        )
    print()
    print(
        f"sharded cut {result.flow_value:.6f} vs exact {exact.cut_value:.6f} "
        f"(relative error {result.relative_error:.2e}, "
        f"{'converged' if outcome.converged else 'budget exhausted'} after "
        f"{outcome.iterations} iterations, {result.wall_time_s:.3f} s)"
    )


if __name__ == "__main__":
    main()
