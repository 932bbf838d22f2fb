"""Tests for the N-way shard coordinator and the ``"sharded:<engine>"`` backend."""

from __future__ import annotations

import pytest

from repro.errors import AlgorithmError, DecompositionError
from repro.flows import min_cut
from repro.graph import grid_graph, paper_example_graph, rmat_graph
from repro.problems import ProjectSelection
from repro.service import (
    AsyncSolveServer,
    BatchSolveService,
    ProblemSolveService,
    SolveBackend,
    SolveRequest,
)
from repro.shard import (
    ShardCoordinator,
    ShardExecutor,
    ShardOutcome,
    partition_multiway,
)


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

    def test_step_rule_keeps_bounds_valid(self):
        network = grid_graph(3, 6, capacity=2.0, seed=2, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        outcome = ShardCoordinator(num_shards=3, max_iterations=40).solve(
            network, executor="serial"
        )
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
            partition, backend="push-relabel", executor="serial"
        ) as executor:
            solves = executor.solve_iteration([{}, {}])
        assert [s.shard for s in solves] == [0, 1]
        stats = executor.shard_stats()
        assert [row["backend"] for row in stats] == ["push-relabel", "push-relabel"]

    @pytest.mark.parametrize("backend", ["dinic", "analog"])
    def test_idle_shard_is_warm_and_runs_no_solver(self, backend, monkeypatch):
        from repro.analog.solver import AnalogMaxFlowSolver
        from repro.flows.incremental import IncrementalMaxFlow

        def no_solve(*args, **kwargs):
            raise AssertionError("an unchanged shard ran its engine")

        network = grid_graph(3, 6, capacity=2.0, seed=4, capacity_jitter=0.2)
        partition = partition_multiway(network, 2)
        with ShardExecutor(partition, backend=backend, executor="serial") as executor:
            first = executor.solve_iteration([{}, {}])
            for owner, name in [
                (IncrementalMaxFlow, "apply"),
                (IncrementalMaxFlow, "refresh"),
                (AnalogMaxFlowSolver, "compile"),
                (AnalogMaxFlowSolver, "resolve"),
            ]:
                monkeypatch.setattr(owner, name, no_solve)
            second = executor.solve_iteration([{}, {}])
        assert [s.warm for s in first] == [False, False]
        assert [s.warm for s in second] == [True, True]
        assert [s.value for s in second] == [s.value for s in first]
        assert [row["warm_solves"] for row in executor.shard_stats()] == [1, 1]

    def test_unknown_backend_rejected(self):
        partition = partition_multiway(paper_example_graph(), 2)
        with pytest.raises(DecompositionError):
            ShardExecutor(partition, backend="quantum")

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
            ex.solve_iteration([{vertex: 1.5}, {}])
            structural_before = state.session.summary()["structural_revision"]
            ex.solve_iteration([{vertex: -0.5}, {}])
            assert state.session.summary()["structural_revision"] == structural_before
            net = state.augmented
            assert net.edge(state.source_cost_edge[vertex]).capacity == 0.0
            assert net.edge(state.sink_cost_edge[vertex]).capacity == 0.5


class TestShardedBackend:
    def test_batch_request_returns_outcome_and_report(self):
        network = grid_graph(3, 6, capacity=2.0, seed=3, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        report = BatchSolveService(executor="thread").solve_batch(
            [
                SolveRequest(
                    network=network,
                    backend="sharded:dinic",
                    options={"shards": 3},
                    tag="unit",
                    reference_value=exact,
                )
            ]
        )
        result = report.results[0]
        assert result.ok and not result.degraded
        assert result.tag == "unit"
        assert result.backend == "sharded:dinic"
        assert result.edge_flows == {}  # the sharded answer is a cut
        outcome = result.detail
        assert isinstance(outcome, ShardOutcome)
        assert result.flow_value == outcome.cut_value
        if outcome.converged:
            assert result.relative_error == pytest.approx(0.0, abs=1e-9)
        assert outcome.num_shards == 3
        assert len(outcome.shard_stats) == 3
        assert outcome.iterations == len(outcome.history)
        assert outcome.duality_gap >= -1e-9
        assert report.summary()["backends"] == {"sharded:dinic": 1}
        assert "sharded:dinic" in report.format(title="sharded")

    @pytest.mark.parametrize("failover", [None, True])
    def test_configuration_mistakes_raise_before_any_solve(self, failover, monkeypatch):
        attempts = []
        monkeypatch.setattr(
            SolveBackend, "solve", lambda self, request: attempts.append(request)
        )
        network = paper_example_graph()
        service = BatchSolveService(executor="serial", failover=failover)
        with pytest.raises(DecompositionError):
            service.solve(network, backend="sharded:dinic", shards=1)
        with pytest.raises(AlgorithmError, match="dinc"):
            service.solve(network, backend="sharded:dinc", shards=2)
        with pytest.raises(DecompositionError):
            service.solve_batch(
                [
                    SolveRequest(network=network, backend="kernel"),
                    SolveRequest(
                        network=network, backend="sharded:dinic", options={"shards": 1}
                    ),
                ]
            )
        problems = ProblemSolveService(failover=bool(failover))
        closure = ProjectSelection({0: 2.0, 1: -1.0, 2: 1.5}, [(0, 1)])
        with pytest.raises(DecompositionError):
            problems.solve(closure, backend="dinic", shards=1)
        with pytest.raises(AlgorithmError, match="dinc"):
            problems.solve(closure, backend="dinc", shards=2)
        assert attempts == []

    def test_report_rows_feed_format_table(self):
        from repro.bench import format_table

        network = grid_graph(2, 5, capacity=1.0, seed=1)
        report = BatchSolveService(executor="serial").solve_batch(
            [SolveRequest(network=network, backend="sharded:dinic")]
        )
        assert "sharded:dinic" in format_table(report.as_rows())
        assert "shard" in format_table(report.results[0].detail.shard_stats)

    def test_sharded_request_inside_a_mixed_batch(self):
        network = grid_graph(3, 6, capacity=2.0, seed=3, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        report = BatchSolveService(max_workers=2).solve_batch(
            [
                SolveRequest(network=network, backend="kernel", tag="kernel"),
                SolveRequest(
                    network=network,
                    backend="sharded:dinic",
                    options={"shards": 2, "max_iterations": 120},
                    tag="sharded",
                ),
                SolveRequest(network=network, backend="dinic", tag="dinic"),
            ]
        )
        assert report.num_ok == 3
        for result in report.results:
            assert result.flow_value == pytest.approx(exact, abs=1e-9), result.tag
        assert report.by_tag("sharded")[0].detail.converged
        assert report.telemetry()["summary"]["backends"]["sharded:dinic"] == 1

    async def test_server_carries_sharded_requests(self):
        network = grid_graph(3, 6, capacity=2.0, seed=3, capacity_jitter=0.2)
        exact = min_cut(network).cut_value
        async with AsyncSolveServer(workers=1) as server:
            response = await server.submit(
                network, backend="sharded:dinic", shards=2, deadline_s=60.0
            )
        assert response.status == 200
        assert response.result.backend == "sharded:dinic"
        assert response.result.flow_value == pytest.approx(exact, abs=1e-9)
