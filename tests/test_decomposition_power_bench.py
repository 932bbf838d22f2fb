"""Tests for dual decomposition (Section 6.4), the power model (Section 5.2)
and the benchmark harness."""

from __future__ import annotations

import math

import pytest

from repro.bench import (
    Fig10Runner,
    fig10_dense_suite,
    fig10_sparse_suite,
    format_series,
    format_table,
    relative,
)
from repro.bench.workloads import FIG10_VERTEX_COUNTS, Fig10Workload
from repro.errors import DecompositionError, PowerBudgetError
from repro.flows import CpuCostModel, dinic, min_cut, push_relabel
from repro.graph import grid_graph, paper_example_graph, rmat_graph
from repro.power import PowerModel, compare_energy
from repro.shard import ShardCoordinator, partition_multiway


class TestPartition:
    """Section 6.4's two overlapping halves: the two-shard partition."""

    def test_overlap_partition_covers_graph(self):
        network = rmat_graph(30, 90, seed=3)
        partition = partition_multiway(network, 2)
        assert partition.sides[0] | partition.sides[1] == set(network.vertices())
        assert network.source in partition.cores[0]
        assert network.sink in partition.cores[1]
        edges = sum(sub.num_edges for sub in partition.subproblems)
        assert edges >= network.num_edges

    def test_balance_validation(self):
        with pytest.raises(DecompositionError):
            partition_multiway(paper_example_graph(), 2, fractions=[0.0, 1.0])

    def test_overlap_edges_split_in_half(self):
        network = grid_graph(2, 4, capacity=2.0)
        partition = partition_multiway(network, 2)
        for edge in partition.subproblems[0].edges():
            if edge.tail in partition.overlap and edge.head in partition.overlap:
                originals = network.find_edges(edge.tail, edge.head)
                assert edge.capacity == pytest.approx(originals[0].capacity / 2.0)


class TestDualDecomposition:
    """Section 6.4's coordination of two subproblems on the shard coordinator."""

    @pytest.mark.parametrize("network_factory, name", [
        (lambda: grid_graph(3, 5, capacity=2.0, seed=3, capacity_jitter=0.3), "grid"),
        (lambda: rmat_graph(25, 70, seed=5), "rmat"),
        (lambda: paper_example_graph(), "paper"),
    ])
    def test_feasible_cut_upper_bounds_and_approximates_minimum(self, network_factory, name):
        network = network_factory()
        exact = min_cut(network).cut_value
        result = ShardCoordinator(num_shards=2, max_iterations=50).solve(
            network, executor="serial"
        )
        # The stitched cut is always a valid s-t cut, hence an upper bound on
        # the global minimum; the subgradient coordination keeps it within a
        # modest factor on these small instances (dual decomposition is an
        # approximation scheme, not an exact solver).
        assert result.cut_value >= exact - 1e-6
        assert result.cut_value <= exact * 1.8 + 1e-6
        assert network.source in result.partition
        assert network.sink not in result.partition

    def test_history_recorded(self):
        result = ShardCoordinator(num_shards=2, max_iterations=10).solve(
            grid_graph(2, 4, capacity=1.0), executor="serial"
        )
        assert 1 <= result.iterations <= 10
        assert len(result.history) == result.iterations
        assert result.duality_gap >= -1e-6

    def test_invalid_solver_name(self):
        with pytest.raises(DecompositionError):
            ShardCoordinator(num_shards=2).solve(
                paper_example_graph(), backend="quantum", executor="serial"
            )


class TestPowerModel:
    def test_paper_budget_numbers(self):
        """5 W supports ~1e4 edges and 150 W supports ~3e5 edges (Section 5.2)."""
        model = PowerModel()
        table = model.budget_table([5.0, 150.0])
        assert table[5.0] == pytest.approx(1e4, rel=0.01)
        assert table[150.0] == pytest.approx(3e5, rel=0.01)

    def test_estimate_formula(self):
        model = PowerModel()
        estimate = model.estimate({"edges": 1000, "vertices": 200})
        assert estimate.opamp_count == 1200
        assert estimate.total_power_w == pytest.approx(1200 * 500e-6)

    def test_estimate_from_network_and_compiled(self):
        network = paper_example_graph()
        model = PowerModel()
        from repro.analog import MaxFlowCircuitCompiler

        compiled = MaxFlowCircuitCompiler(quantize=False).compile(network)
        assert model.estimate(network).opamp_count == network.num_edges + network.num_vertices
        assert model.estimate(compiled).opamp_count == compiled.negative_resistor_count

    def test_budget_enforcement(self):
        model = PowerModel()
        with pytest.raises(PowerBudgetError):
            model.check_budget({"edges": 100000, "vertices": 0}, budget_w=5.0)
        with pytest.raises(PowerBudgetError):
            model.max_edges_for_budget(0.0)

    def test_energy_comparison(self):
        network = rmat_graph(30, 100, seed=2)
        cpu = CpuCostModel().estimate(push_relabel(network))
        power = PowerModel().estimate(network)
        comparison = compare_energy(power, convergence_time_s=1e-7, cpu_estimate=cpu)
        assert comparison.speedup > 1.0
        assert comparison.energy_efficiency > comparison.speedup * (
            comparison.analog_power_w / comparison.cpu_power_w
        ) * 0.99
        assert comparison.analog_energy_j > 0


class TestBenchHarness:
    def test_fig10_suites_cover_paper_sizes(self):
        dense = fig10_dense_suite()
        sparse = fig10_sparse_suite()
        assert [w.num_vertices for w in dense] == FIG10_VERTEX_COUNTS
        assert [w.num_vertices for w in sparse] == FIG10_VERTEX_COUNTS
        assert all(w.num_edges <= 8000 for w in dense)
        assert all(w.num_edges <= 8000 for w in sparse)
        # The dense regime grows quadratically, the sparse one linearly, so
        # the dense suite's largest instance is the densest of all.
        assert dense[-1].num_edges > sparse[-1].num_edges
        dense_growth = dense[-1].num_edges / dense[0].num_edges
        sparse_growth = sparse[-1].num_edges / sparse[0].num_edges
        assert dense_growth > sparse_growth

    def test_scaled_suites_shrink(self):
        quick = fig10_dense_suite(scale=0.1)
        assert max(w.num_vertices for w in quick) <= 96
        assert all(w.generate().num_vertices == w.num_vertices for w in quick[:2])

    def test_fig10_runner_row(self):
        runner = Fig10Runner(transient_vertex_limit=0)  # estimator-only: fast
        row = runner.run_workload(Fig10Workload("t", "sparse", 24, 70, seed=3))
        assert row.exact_flow > 0
        assert row.relative_error < 0.15
        assert row.convergence_time_10g_s > 0
        assert row.convergence_time_50g_s < row.convergence_time_10g_s
        assert row.speedup_10g > 1.0
        assert row.convergence_source == "estimator"
        table = format_table([row.as_dict()], title="row")
        assert "speedup" in table

    def test_reporting_helpers(self):
        assert relative(1.1, 1.0) == pytest.approx(0.1)
        assert relative(0.0, 0.0) == 0.0
        assert math.isinf(relative(1.0, 0.0))
        table = format_table([{"a": 1, "b": 2.5}, {"a": 3}])
        assert "a" in table and "b" in table
        series = format_series([1, 2], {"y": [0.1, 0.2]}, x_label="n")
        assert "n" in series and "y" in series
        assert format_table([]) == "(no rows)"
