"""Tests for the N-way shard coordinator and the sharded solving service."""

from __future__ import annotations

import pytest

from repro.errors import DecompositionError
from repro.flows import min_cut
from repro.graph import grid_graph, paper_example_graph, rmat_graph
from repro.service import ShardedSolveService
from repro.shard import ShardCoordinator, ShardExecutor, partition_multiway


EQUIVALENCE_CASES = [
    ("paper", lambda: paper_example_graph()),
    ("grid-a", lambda: grid_graph(3, 5, capacity=2.0, seed=3, capacity_jitter=0.3)),
    ("grid-b", lambda: grid_graph(5, 9, capacity=2.0, seed=11, capacity_jitter=0.3)),
    ("rmat-a", lambda: rmat_graph(25, 70, seed=5)),
    ("rmat-b", lambda: rmat_graph(40, 120, seed=9)),
    ("rmat-c", lambda: rmat_graph(60, 180, seed=7)),
]


class TestRandomizedEquivalence:
    """Acceptance: sharded == Dinic cold on converged runs, bounds bracket."""

    @pytest.mark.parametrize("name, factory", EQUIVALENCE_CASES)
    @pytest.mark.parametrize("num_shards", [2, 3, 4])
    def test_converged_cut_matches_exact_and_bounds_bracket(
        self, name, factory, num_shards
    ):
        network = factory()
        if num_shards > max(2, network.num_vertices - 2):
            pytest.skip("more shards than interior vertices")
        exact = min_cut(network).cut_value
        outcome = ShardCoordinator(num_shards=num_shards, max_iterations=100).solve(
            network, executor="serial"
        )
        # The dual lower bound and the stitched upper bound must bracket the
        # exact optimum on every iteration, converged or not.
        for dual, feasible, _ in outcome.history:
            assert dual <= exact + 1e-9
            assert feasible >= exact - 1e-9
        assert outcome.dual_value <= exact + 1e-9
        assert outcome.cut_value >= exact - 1e-9
        if outcome.converged:
            assert outcome.cut_value == pytest.approx(exact, abs=1e-9)
            assert network.cut_capacity(outcome.partition) == pytest.approx(
                outcome.cut_value
            )

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_executors_agree(self, num_shards):
        network = grid_graph(3, 6, capacity=2.0, seed=5, capacity_jitter=0.2)
        results = {}
        for executor in ("serial", "thread"):
            outcome = ShardCoordinator(
                num_shards=num_shards, max_iterations=60
            ).solve(network, executor=executor, max_workers=2)
            results[executor] = outcome.cut_value
        assert results["serial"] == pytest.approx(results["thread"], abs=1e-9)

    def test_warm_and_cold_shard_solves_agree(self):
        network = grid_graph(4, 8, capacity=2.0, seed=7, capacity_jitter=0.3)
        warm = ShardCoordinator(num_shards=3, max_iterations=60).solve(
            network, executor="serial", warm=True
        )
        cold = ShardCoordinator(num_shards=3, max_iterations=60).solve(
            network, executor="serial", warm=False
        )
        assert warm.cut_value == pytest.approx(cold.cut_value, abs=1e-9)
        assert warm.iterations == cold.iterations

    @pytest.mark.parametrize("step_rule", ["harmonic", "polyak"])
    def test_step_rules_keep_bounds_valid(self, step_rule):
        network = grid_graph(3, 6, capacity=2.0, seed=2, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        outcome = ShardCoordinator(
            num_shards=3, max_iterations=40, step_rule=step_rule
        ).solve(network, executor="serial")
        for dual, feasible, _ in outcome.history:
            assert dual <= exact + 1e-9
            assert feasible >= exact - 1e-9

    def test_analog_backend_agrees_to_substrate_tolerance(self):
        from repro.analog.solver import AnalogMaxFlowSolver
        from repro.config import SubstrateParameters

        network = grid_graph(3, 6, capacity=4.0, seed=5, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        # The objective drive must exceed the max-flow scale (the Section
        # 6.5 finite-drive caveat) or the shard values are badly biased.
        solver = AnalogMaxFlowSolver(
            quantize=False, parameters=SubstrateParameters(vflow_v=64.0)
        )
        outcome = ShardCoordinator(num_shards=2, max_iterations=30).solve(
            network, backend="analog", executor="serial", analog_solver=solver
        )
        # Analog shard values carry finite-drive/bleed error, so the cut is
        # substrate-accurate rather than exact (cf. docs/architecture.md).
        assert outcome.cut_value == pytest.approx(exact, rel=0.05)
        # Warm re-solves: every shard solved once per iteration but compiled
        # at most once.
        for row in outcome.shard_stats:
            assert row["solves"] == outcome.iterations
            assert row["warm_solves"] >= row["solves"] - 1


class TestShardExecutor:
    def test_per_shard_backends(self):
        network = grid_graph(3, 6, capacity=2.0, seed=4, capacity_jitter=0.2)
        partition = partition_multiway(network, 2)
        with ShardExecutor(
            partition, backend=["dinic", "push-relabel"], executor="serial"
        ) as executor:
            solves = executor.solve_iteration([{}, {}])
        assert [s.shard for s in solves] == [0, 1]
        stats = executor.shard_stats()
        assert [row["backend"] for row in stats] == ["dinic", "push-relabel"]

    def test_unknown_backend_rejected(self):
        partition = partition_multiway(paper_example_graph(), 2)
        with pytest.raises(DecompositionError):
            ShardExecutor(partition, backend="quantum")

    def test_backend_count_mismatch_rejected(self):
        partition = partition_multiway(paper_example_graph(), 2)
        with pytest.raises(DecompositionError):
            ShardExecutor(partition, backend=["dinic"])

    def test_adaptive_drive_template_rejected(self):
        from repro.analog.solver import AnalogMaxFlowSolver

        partition = partition_multiway(paper_example_graph(), 2)
        adaptive = AnalogMaxFlowSolver(adaptive_drive=True)
        with pytest.raises(DecompositionError, match="adaptive_drive"):
            ShardExecutor(partition, backend="analog", analog_solver=adaptive)

    def test_multiplier_updates_are_capacity_edits(self):
        network = grid_graph(2, 5, capacity=2.0, seed=1, capacity_jitter=0.2)
        partition = partition_multiway(network, 2)
        with ShardExecutor(partition, backend="dinic", executor="serial") as ex:
            state = ex._states[0]
            vertex = next(iter(state.source_cost_edge))
            structural_before = state.mutable.structural_revision
            ex.solve_iteration([{vertex: 1.5}, {}])
            ex.solve_iteration([{vertex: -0.5}, {}])
            assert state.mutable.structural_revision == structural_before
            net = state.augmented
            assert net.edge(state.source_cost_edge[vertex]).capacity == 0.0
            assert net.edge(state.sink_cost_edge[vertex]).capacity == 0.5


class TestShardedSolveService:
    def test_solve_returns_result_and_report(self):
        network = grid_graph(3, 6, capacity=2.0, seed=3, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        sharded = ShardedSolveService(executor="thread").solve(
            network, shards=3, tag="unit", reference_value=exact
        )
        assert sharded.result.ok
        assert sharded.result.tag == "unit"
        assert sharded.result.backend == "sharded:dinic"
        assert sharded.flow_value == sharded.result.flow_value
        if sharded.report.converged:
            assert sharded.result.relative_error == pytest.approx(0.0, abs=1e-9)
        report = sharded.report
        assert report.num_shards == 3
        assert len(report.shard_rows) == 3
        assert report.iterations == len(report.bound_trajectory)
        assert report.duality_gap >= -1e-9
        formatted = report.format(title="sharded")
        assert "cut" in formatted and "iterations" in formatted
        summary = report.summary()
        assert summary["shards"] == 3
        assert summary["executor"] == "thread"

    def test_invalid_configuration(self):
        for executor in ("fleet", "process"):
            with pytest.raises(DecompositionError):
                ShardedSolveService(executor=executor)
        with pytest.raises(DecompositionError):
            ShardedSolveService(max_workers=0)
        network = paper_example_graph()
        with pytest.raises(DecompositionError):
            ShardedSolveService().solve(network, shards=1)

    def test_report_rows_feed_format_table(self):
        from repro.bench import format_table

        network = grid_graph(2, 5, capacity=1.0, seed=1)
        sharded = ShardedSolveService(executor="serial").solve(network, shards=2)
        table = format_table(sharded.report.as_rows())
        assert "shard" in table
