"""The cross-backend conformance gate.

Four independent solving paths grew up in this repo — classical registry
algorithms, the analog pipeline, sharded solving and streaming sessions —
each previously checked only inside its own test file.  This is
the single shared gate: every path must agree with the exact Dinic
reference on one randomized + degenerate instance corpus
(``tests/conformance.py``) to its backend tolerance, and every problem
reduction must solve correctly (certificates passing) through a classical,
the analog and the sharded backend.

Seeds derive from ``REPRO_TEST_SEED``; heavy randomized cases are marked
``slow`` (run with ``--runslow`` / ``make test-conformance``).
"""

from __future__ import annotations

import pytest

import conformance
from seeding import derive_seed

from repro.flows.registry import ALGORITHMS
from repro.problems import (
    BipartiteMatching,
    DisjointPaths,
    ImageSegmentation,
    ProjectSelection,
    solve_problem,
)
from repro.service import ProblemSolveService

CORPUS = conformance.build_corpus()
HEAVY_CORPUS = conformance.build_heavy_corpus()

ALL_INSTANCES = [pytest.param(inst, id=inst.name) for inst in CORPUS] + [
    pytest.param(inst, id=inst.name, marks=pytest.mark.slow)
    for inst in HEAVY_CORPUS
]


# ---------------------------------------------------------------------------
# Max-flow value conformance, every solving path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_classical_algorithms_agree(instance, algorithm):
    value = conformance.classical_value(instance.network, algorithm)
    tolerance = conformance.TOLERANCES[
        "lp-reference" if algorithm == "lp-reference" else "classical"
    ]
    assert conformance.relative_gap(value, instance.reference_value) <= tolerance, (
        f"{algorithm} disagrees on {instance.name}: "
        f"{value} vs reference {instance.reference_value}"
    )


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_analog_pipeline_agrees(instance):
    value = conformance.analog_value(instance.network)
    assert (
        conformance.relative_gap(value, instance.reference_value)
        <= conformance.TOLERANCES["analog"]
    ), f"analog disagrees on {instance.name}: {value} vs {instance.reference_value}"


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_sharded_service_agrees(instance):
    if not instance.shardable:
        pytest.skip("instance has no interior vertices to shard")
    sharded = conformance.sharded_solve(instance.network, shards=2)
    assert sharded.ok, f"sharded failed on {instance.name}: {sharded.error}"
    exact = instance.reference_value
    # Bound validity holds on every iteration, converged or not.
    for dual, feasible, _ in sharded.detail.history:
        assert dual <= exact + 1e-9
        assert feasible >= exact - 1e-9
    assert sharded.detail.converged, f"sharded did not converge on {instance.name}"
    assert (
        conformance.relative_gap(sharded.flow_value, exact)
        <= conformance.TOLERANCES["sharded"]
    )


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_streaming_classical_one_push_agrees(instance):
    if not instance.streamable:
        pytest.skip("instance has no edge to push an update against")
    value = conformance.streaming_one_push_value(instance.network, "dinic")
    assert (
        conformance.relative_gap(value, instance.reference_value)
        <= conformance.TOLERANCES["streaming-classical"]
    )


@pytest.mark.parametrize("instance", ALL_INSTANCES)
def test_streaming_analog_one_push_matches_cold(instance):
    if not instance.streamable or not instance.streaming_analog_ok:
        pytest.skip("instance not solvable by an analog streaming session")
    warm, cold = conformance.streaming_analog_pair(instance.network)
    assert (
        conformance.relative_gap(warm, cold)
        <= conformance.TOLERANCES["streaming-analog"]
    ), f"warm push drifted from cold solve on {instance.name}: {warm} vs {cold}"


# ---------------------------------------------------------------------------
# Reduction conformance: every reduction through three backend families
# ---------------------------------------------------------------------------


def _problem_suite():
    """One randomized instance per reduction, seeded from REPRO_TEST_SEED."""
    import random

    problems = []

    rng = random.Random(derive_seed("conformance-matching"))
    problems.append(
        (
            "matching",
            BipartiteMatching(
                list(range(7)),
                list(range(7)),
                [
                    (i, j)
                    for i in range(7)
                    for j in range(7)
                    if rng.random() < 0.35
                ],
            ),
        )
    )

    rng = random.Random(derive_seed("conformance-paths"))
    mids = list(range(6))
    edges = (
        [("s", m) for m in mids if rng.random() < 0.8]
        + [(m, "t") for m in mids if rng.random() < 0.8]
        + [(a, b) for a in mids for b in mids if a != b and rng.random() < 0.25]
    )
    problems.append(
        ("paths", DisjointPaths(edges, source="s", sink="t", vertex_disjoint=True))
    )

    rng = random.Random(derive_seed("conformance-segmentation"))
    height, width = 3, 5
    problems.append(
        (
            "segmentation",
            ImageSegmentation(
                [[rng.random() for _ in range(width)] for _ in range(height)],
                [[rng.random() for _ in range(width)] for _ in range(height)],
                smoothness=0.3,
            ),
        )
    )

    rng = random.Random(derive_seed("conformance-closure"))
    problems.append(
        (
            "closure",
            ProjectSelection(
                {i: rng.uniform(-5.0, 5.0) for i in range(10)},
                [
                    (i, j)
                    for i in range(10)
                    for j in range(10)
                    if i != j and rng.random() < 0.12
                ],
            ),
        )
    )
    return problems


PROBLEMS = _problem_suite()

#: (backend, shards) routes covering classical (reference + flat-array
#: kernel), analog and sharded.
BACKEND_ROUTES = [
    ("dinic", None),
    ("push-relabel", None),
    ("kernel", None),
    ("analog", None),
    ("dinic", 2),
]


@pytest.fixture(scope="module")
def problem_service():
    return ProblemSolveService()


@pytest.fixture(scope="module")
def reference_solutions():
    """Exact reference objective per reduction (classical reference path)."""
    return {
        name: solve_problem(problem)[0].value for name, problem in PROBLEMS
    }


@pytest.mark.parametrize(
    "backend, shards", BACKEND_ROUTES, ids=lambda v: str(v)
)
@pytest.mark.parametrize("name, problem", PROBLEMS, ids=[n for n, _ in PROBLEMS])
def test_reductions_certified_on_every_backend(
    problem_service, reference_solutions, name, problem, backend, shards
):
    solved = problem_service.solve(problem, backend=backend, shards=shards)
    assert solved.certified, (
        f"{name} via {backend}/shards={shards}: "
        f"{solved.report.certificate_status}"
    )
    assert solved.value == pytest.approx(reference_solutions[name], rel=1e-9, abs=1e-9)
    # Approximate backends must still land within their declared tolerance.
    if solved.report.backend_value_error is not None:
        rtol = conformance.TOLERANCES["analog"] if backend == "analog" else 1e-6
        assert solved.report.backend_value_error <= rtol


@pytest.mark.slow
@pytest.mark.parametrize("trial", range(3))
def test_reduction_matrix_randomized_trials(problem_service, trial):
    """Extra randomized rounds of the full reduction x backend matrix."""
    import random

    rng = random.Random(derive_seed("matrix-trial", trial))
    problem = BipartiteMatching(
        list(range(9)),
        list(range(9)),
        [(i, j) for i in range(9) for j in range(9) if rng.random() < 0.3],
    )
    reference = solve_problem(problem)[0].value
    for backend, shards in BACKEND_ROUTES:
        solved = problem_service.solve(problem, backend=backend, shards=shards)
        assert solved.certified
        assert solved.value == pytest.approx(reference)
