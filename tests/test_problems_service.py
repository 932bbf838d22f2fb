"""Tests for the problem-reduction service front door.

Covers backend routing (classical / analog / sharded), decode-source
policy, report contents, batch solving through the shared worker pool,
strict-mode certificate enforcement, and failure propagation.
"""

from __future__ import annotations

import pytest

from seeding import derive_seed

import random

from repro.errors import CertificateError, ProblemError
from repro.problems import (
    BipartiteMatching,
    CertificateReport,
    ImageSegmentation,
    ProjectSelection,
    Reduction,
    Solution,
    solve_problem,
)
from repro.problems.base import Problem
from repro.service import (
    BatchSolveService,
    ProblemReport,
    ProblemSolve,
    ProblemSolveService,
)


@pytest.fixture(scope="module")
def service():
    return ProblemSolveService()


@pytest.fixture
def matching_problem():
    rng = random.Random(derive_seed("service-matching"))
    return BipartiteMatching(
        list(range(6)),
        list(range(6)),
        [(i, j) for i in range(6) for j in range(6) if rng.random() < 0.4],
    )


@pytest.fixture
def closure_problem():
    rng = random.Random(derive_seed("service-closure"))
    return ProjectSelection(
        {i: rng.uniform(-4.0, 4.0) for i in range(8)},
        [(i, (i + 1) % 8) for i in range(0, 8, 2)],
    )


class TestRouting:
    def test_classical_decodes_from_backend_flow(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="dinic")
        assert solved.report.decode_source == "backend"
        assert solved.certified
        assert solved.result.backend == "dinic"

    def test_analog_uses_decode_pass(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="analog")
        assert solved.report.decode_source == "decode-pass"
        assert solved.certified
        assert solved.report.backend_value_error is not None
        assert solved.report.backend_value_error < 2e-2

    def test_sharded_cut_problem_decodes_from_partition(self, service, closure_problem):
        solved = service.solve(closure_problem, backend="dinic", shards=2)
        assert solved.report.decode_source == "partition"
        assert solved.certified
        assert solved.report.shards == 2
        assert solved.report.backend.startswith("sharded:")

    def test_sharded_flow_problem_falls_back_to_decode_pass(
        self, service, matching_problem
    ):
        solved = service.solve(matching_problem, backend="dinic", shards=2)
        assert solved.report.decode_source == "decode-pass"
        assert solved.certified

    def test_sharded_analog_route_is_certified(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="analog", shards=2)
        assert solved.certified
        assert not solved.result.degraded
        assert solved.report.backend == "sharded:analog"
        assert solved.report.shards == 2

    def test_backends_agree_on_objective(self, service, closure_problem):
        reference = solve_problem(closure_problem)[0].value
        for kwargs in (
            dict(backend="dinic"),
            dict(backend="push-relabel"),
            dict(backend="analog"),
            dict(backend="dinic", shards=2),
        ):
            solved = service.solve(closure_problem, **kwargs)
            assert solved.value == pytest.approx(reference, abs=1e-9)

    def test_unknown_backend_raises(self, service, matching_problem):
        with pytest.raises(Exception):
            service.solve(matching_problem, backend="not-a-backend")

    def test_tag_is_echoed_on_every_route(self, service, matching_problem):
        flat = service.solve(matching_problem, backend="dinic", tag="job-42")
        assert flat.result.request.tag == "job-42"
        sharded = service.solve(
            matching_problem, backend="dinic", shards=2, tag="job-43"
        )
        assert sharded.result.request.tag == "job-43"


class TestReports:
    def test_report_fields(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="dinic", tag="conf")
        report = solved.report
        assert report.kind == "bipartite-matching"
        assert report.network_vertices > 0
        assert report.network_edges > 0
        assert report.certificate_status == "certified"
        assert report.certified
        assert report.wall_time_s >= 0.0
        summary = report.summary()
        assert summary["kind"] == "bipartite-matching"
        assert "objective" in summary and "certificate" in summary
        line = report.format()
        assert "bipartite-matching" in line and "certified" in line

    def test_solution_carries_certificate_checks(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="dinic")
        checks = solved.solution.certificate.checks
        assert "koenig-equality" in checks
        assert "backend-value-consistent" in checks

    def test_problem_solve_shorthands(self, service, matching_problem):
        solved = service.solve(matching_problem, backend="dinic")
        assert isinstance(solved, ProblemSolve)
        assert solved.value == solved.solution.value
        assert solved.certified is True
        assert isinstance(solved.report, ProblemReport)


class TestBatch:
    def test_solve_batch_mixes_reductions(self, service):
        rng = random.Random(derive_seed("service-batch"))
        problems = [
            BipartiteMatching(
                list(range(5)),
                list(range(5)),
                [(i, j) for i in range(5) for j in range(5) if rng.random() < 0.4],
            ),
            ImageSegmentation(
                [[rng.random() for _ in range(4)] for _ in range(3)],
                [[rng.random() for _ in range(4)] for _ in range(3)],
                smoothness=0.2,
            ),
            ProjectSelection({0: 3.0, 1: -1.0}, [(0, 1)]),
        ]
        solves = service.solve_batch(problems, backend="dinic")
        assert len(solves) == 3
        assert all(s.certified for s in solves)
        # The batch path must account the reduction stage like solve() does.
        assert all(s.report.reduce_time_s > 0.0 for s in solves)
        kinds = [s.report.kind for s in solves]
        assert kinds == [
            "bipartite-matching",
            "image-segmentation",
            "project-selection",
        ]
        references = [solve_problem(p)[0].value for p in problems]
        for solved, reference in zip(solves, references):
            assert solved.value == pytest.approx(reference, abs=1e-9)

    def test_batch_wall_time_covers_every_stage(self, service):
        rng = random.Random(derive_seed("service-batch-wall"))
        problems = [
            BipartiteMatching(["a"], ["x"], [("a", "x")]),
            BipartiteMatching(
                list(range(300)),
                list(range(300)),
                [(rng.randrange(300), rng.randrange(300)) for _ in range(3000)],
            ),
        ]
        for solved in service.solve_batch(problems, backend="dinic"):
            report = solved.report
            stages = report.reduce_time_s + report.solve_time_s + report.decode_time_s
            assert report.wall_time_s >= stages

    def test_batch_decodes_sharded_answers_from_the_partition(
        self, service, closure_problem
    ):
        (solved,) = service.solve_batch(
            [closure_problem], backend="sharded:dinic", shards=2, max_iterations=120
        )
        assert solved.certified
        assert solved.report.decode_source == "partition"
        assert solved.value == pytest.approx(
            solve_problem(closure_problem)[0].value, abs=1e-9
        )

    def test_batch_shares_the_injected_service(self):
        batch = BatchSolveService(max_workers=2, executor="serial")
        service = ProblemSolveService(batch_service=batch)
        problem = ProjectSelection({0: 2.0, 1: -1.0}, [(0, 1)])
        solved = service.solve(problem, backend="dinic")
        assert solved.certified


class _BrokenDecodeProblem(Problem):
    """A problem whose verify always fails — exercises strict mode."""

    kind = "broken"
    decode_from = "flow"

    def reduce(self):
        from repro.graph import FlowNetwork

        network = FlowNetwork()
        network.add_edge("s", "t", 1.0)
        return Reduction(problem=self, network=network)

    def decode(self, reduction, flow=None, cut=None):
        flow = self._require_flow(flow)
        return Solution(kind=self.kind, value=0.0, flow_value=flow.flow_value)

    def verify(self, reduction, solution, flow=None, cut=None, tolerance=1e-9):
        report = CertificateReport(tolerance=tolerance)
        report.require("always-fails", False, "by construction")
        return report


class TestStrictAndFailures:
    def test_default_mode_reports_failed_certificate(self):
        service = ProblemSolveService()
        solved = service.solve(_BrokenDecodeProblem(), backend="dinic")
        assert not solved.certified
        assert solved.report.certificate_status.startswith("FAILED")

    def test_strict_mode_raises_certificate_error(self):
        service = ProblemSolveService(strict=True)
        with pytest.raises(CertificateError):
            service.solve(_BrokenDecodeProblem(), backend="dinic")

    def test_decode_without_flow_raises_problem_error(self):
        problem = _BrokenDecodeProblem()
        reduction = problem.reduce()
        with pytest.raises(ProblemError):
            problem.decode(reduction, flow=None)

    def test_value_rtol_override_tightens_analog_check(self, matching_problem):
        service = ProblemSolveService()
        solved = service.solve(
            matching_problem, backend="analog", value_rtol=1e-15
        )
        # An impossibly tight tolerance fails the consistency check but the
        # decoded solution itself is still the exact one.
        assert not solved.certified
        assert "backend-value-consistent" in solved.report.certificate_status


class TestTopLevelExports:
    def test_problem_layer_is_exported_from_repro(self):
        import repro

        for name in (
            "BipartiteMatching",
            "DisjointPaths",
            "ImageSegmentation",
            "ProjectSelection",
            "ProblemSolveService",
            "solve_problem",
            "CertificateReport",
        ):
            assert hasattr(repro, name), name
            assert name in repro.__all__
