"""Tests for the analog LP substrate and the min-cut dual solver (Section 6.3)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analog import AnalogMinCutSolver
from repro.analog.mincut_dual import build_mincut_lp
from repro.analoglp import AnalogLPSolver, LinearProgram
from repro.errors import ConfigurationError
from repro.flows import dinic, min_cut
from repro.graph import grid_graph, paper_example_graph, rmat_graph


class TestLinearProgram:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinearProgram(objective=[])
        with pytest.raises(ConfigurationError):
            LinearProgram(objective=[1.0, 2.0], inequality_matrix=[[1.0]], inequality_rhs=[1.0])
        with pytest.raises(ConfigurationError):
            LinearProgram(objective=[1.0], lower_bounds=[2.0], upper_bounds=[1.0])

    def test_reference_solution(self):
        problem = LinearProgram(
            objective=[-1.0, -2.0],
            inequality_matrix=[[1.0, 1.0]],
            inequality_rhs=[4.0],
            lower_bounds=0.0,
            upper_bounds=3.0,
        )
        x = problem.solve_reference()
        assert problem.objective_value(x) == pytest.approx(-7.0)
        assert problem.is_feasible(x)

    def test_violation_metric(self):
        problem = LinearProgram(
            objective=[1.0],
            inequality_matrix=[[1.0]],
            inequality_rhs=[1.0],
            lower_bounds=0.0,
        )
        assert problem.constraint_violation(np.array([2.0])) == pytest.approx(1.0)
        assert problem.constraint_violation(np.array([0.5])) == 0.0


class TestAnalogLPSolver:
    def test_small_lp_matches_reference(self):
        problem = LinearProgram(
            objective=[-1.0, -2.0],
            inequality_matrix=[[1.0, 1.0]],
            inequality_rhs=[4.0],
            lower_bounds=0.0,
            upper_bounds=3.0,
        )
        analog = AnalogLPSolver(gain=500.0, t_final=60.0).solve(problem)
        reference = problem.solve_reference()
        assert analog.objective_value == pytest.approx(problem.objective_value(reference), rel=0.02)
        assert analog.constraint_violation < 0.05
        assert analog.settling_time > 0

    def test_equality_constraints(self):
        # minimize x + y subject to x + y = 2, 0 <= x,y <= 5.
        problem = LinearProgram(
            objective=[1.0, 1.0],
            equality_matrix=[[1.0, 1.0]],
            equality_rhs=[2.0],
            lower_bounds=0.0,
            upper_bounds=5.0,
        )
        analog = AnalogLPSolver(gain=500.0).solve(problem)
        assert analog.x.sum() == pytest.approx(2.0, abs=0.02)

    def test_trajectory_recorded(self):
        problem = LinearProgram(objective=[1.0], lower_bounds=0.0, upper_bounds=1.0)
        analog = AnalogLPSolver(t_final=10.0).solve(problem)
        assert analog.trajectory.shape[0] == analog.times.shape[0]
        assert analog.x[0] == pytest.approx(0.0, abs=0.01)


class TestMinCutLP:
    def test_lp_structure(self):
        g = paper_example_graph()
        problem, vertices, edge_order = build_mincut_lp(g)
        assert problem.num_variables == g.num_vertices + g.num_edges
        assert problem.num_inequalities == g.num_edges + 1
        assert len(edge_order) == g.num_edges

    def test_lp_reference_equals_maxflow(self):
        for network in (paper_example_graph(), rmat_graph(15, 45, seed=2)):
            problem, _, _ = build_mincut_lp(network)
            x = problem.solve_reference()
            assert problem.objective_value(x) == pytest.approx(
                dinic(network).flow_value, rel=1e-6
            )


class TestAnalogMinCut:
    def test_paper_example(self):
        result = AnalogMinCutSolver(t_final=40.0).solve(paper_example_graph())
        assert result.exact_value == pytest.approx(2.0)
        assert result.cut_value == pytest.approx(2.0)
        assert result.relative_error < 0.05
        assert result.partition["s"] == 1 and result.partition["t"] == 0

    def test_grid_graph(self):
        network = grid_graph(2, 3, capacity=1.0)
        result = AnalogMinCutSolver(t_final=40.0).solve(network)
        assert result.exact_value == pytest.approx(2.0)
        assert result.rounded_relative_error <= 0.5
        assert result.lp_objective == pytest.approx(2.0, rel=0.1)

    def test_cut_edges_cross_partition(self):
        network = paper_example_graph()
        result = AnalogMinCutSolver(t_final=40.0).solve(network)
        side = result.source_side()
        for index in result.cut_edges:
            edge = network.edge(index)
            assert edge.tail in side and edge.head not in side


class TestScipySolversLoadOnFirstUse:
    def test_import_repro_loads_neither_and_both_still_solve(self):
        # A fresh interpreter: this process has long since loaded both.
        script = textwrap.dedent(
            """
            import sys
            import repro
            from repro.analoglp import AnalogLPSolver, LinearProgram
            from repro.flows.registry import get_algorithm

            print("scipy.optimize" in sys.modules, "scipy.integrate" in sys.modules)
            g = repro.FlowNetwork()
            g.add_edge("s", "a", 2.0)
            g.add_edge("a", "t", 1.0)
            print(get_algorithm("lp-reference").solve(g).flow_value)
            problem = LinearProgram(
                objective=[1.0, 1.0], equality_matrix=[[1.0, 1.0]],
                equality_rhs=[2.0], lower_bounds=0.0, upper_bounds=5.0,
            )
            print(AnalogLPSolver(gain=500.0).solve(problem).x.sum())
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        ).stdout.split()
        assert out[:2] == ["False", "False"]
        assert float(out[2]) == pytest.approx(1.0, rel=1e-9)
        assert float(out[3]) == pytest.approx(2.0, abs=0.02)
