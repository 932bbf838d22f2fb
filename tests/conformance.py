"""Shared cross-backend conformance corpus and backend adapters.

One randomized instance corpus (grids, R-MAT, bipartite, plus degenerate
shapes: zero-capacity edges, disconnected s/t, single edge) consumed by
``tests/test_backend_conformance.py`` — the single correctness gate every
solving path must clear instead of four per-subsystem copies:

* every classical algorithm in :data:`repro.flows.registry.ALGORITHMS`,
* the analog pipeline (certificate-grade: unquantized, adaptive drive),
* the ``"sharded:dinic"`` backend on :class:`repro.service.BatchSolveService`,
* a one-push :class:`repro.service.StreamingSession` (classical + analog).

Instance seeds derive from ``REPRO_TEST_SEED`` (see ``conftest.py``), so a
red run is reproducible by exporting the seed the failure report printed.

Backend tolerances
------------------
``TOLERANCES`` records the per-backend-family relative flow-value tolerance:
exact combinatorial backends must match the Dinic reference to 1e-9, the LP
reference to its solver tolerance, the analog substrate to its substrate
tolerance, and a warm streaming-analog push is compared against a *cold*
solve of the same solver configuration (drive adaptation is a compile-time
choice, so warm-vs-cold of one configuration is the meaningful invariant —
the substrate-vs-exact gap is covered by the analog pipeline gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from seeding import derive_seed

from repro.analog.solver import AnalogMaxFlowSolver
from repro.flows.registry import solve_max_flow
from repro.graph import (
    FlowNetwork,
    bipartite_graph,
    grid_graph,
    paper_example_graph,
    parallel_paths_graph,
    rmat_graph,
)
from repro.graph.updates import CapacityUpdate
from repro.service import BatchSolveService, StreamingSession

#: Relative flow-value tolerance per backend family.
TOLERANCES: Dict[str, float] = {
    "classical": 1e-9,
    "lp-reference": 1e-6,
    "analog": 5e-3,
    "sharded": 1e-9,
    "streaming-classical": 1e-9,
    "streaming-analog": 1e-3,  # warm push vs cold solve, leakage-bounded
}


@dataclass
class ConformanceInstance:
    """One corpus entry: a network, its exact value and applicability flags."""

    name: str
    network: FlowNetwork
    reference_value: float
    #: Sharded solving needs interior vertices to partition and an instance
    #: class the coordinator is known to converge on.
    shardable: bool = True
    #: The analog *pipeline* handles every corpus shape (a dead source is a
    #: graceful zero-flow result) ...
    analog_ok: bool = True
    #: ... but the streaming session's compile path (dedicated clamp
    #: sources, no pruning) rejects a source with no usable outgoing edge.
    streaming_analog_ok: bool = True
    #: Streaming needs at least one edge to push an update against.
    streamable: bool = True
    tags: List[str] = field(default_factory=list)


def _instance(name: str, network: FlowNetwork, **flags) -> ConformanceInstance:
    reference = solve_max_flow(network, algorithm="dinic").flow_value
    return ConformanceInstance(
        name=name, network=network, reference_value=reference, **flags
    )


def _zero_capacity_network() -> FlowNetwork:
    """Zero-capacity edges on real paths plus a live parallel route."""
    g = FlowNetwork()
    g.add_edge("s", "a", 0.0)
    g.add_edge("a", "t", 2.0)
    g.add_edge("s", "b", 3.0)
    g.add_edge("b", "t", 0.0)
    g.add_edge("s", "t", 1.5)
    g.add_edge("b", "a", 1.0)
    return g


def _disconnected_network() -> FlowNetwork:
    """Source and sink in different components (max flow 0)."""
    g = FlowNetwork()
    g.add_edge("s", "a", 3.0)
    g.add_edge("a", "s", 1.0)
    g.add_edge("b", "t", 2.0)
    return g


def _single_edge_network() -> FlowNetwork:
    g = FlowNetwork()
    g.add_edge("s", "t", 4.5)
    return g


def build_corpus() -> List[ConformanceInstance]:
    """The shared randomized + degenerate instance corpus (fast subset)."""
    return [
        _instance("paper-fig5a", paper_example_graph()),
        _instance(
            "single-edge",
            _single_edge_network(),
            shardable=False,  # no interior vertices to partition
            tags=["degenerate"],
        ),
        _instance(
            "disconnected-st",
            _disconnected_network(),
            shardable=False,
            streaming_analog_ok=False,
            tags=["degenerate"],
        ),
        _instance("zero-capacity-edges", _zero_capacity_network(), tags=["degenerate"]),
        _instance("parallel-paths", parallel_paths_graph(3, path_length=2)),
        _instance(
            "grid-3x5",
            grid_graph(
                3, 5, capacity=2.0, seed=derive_seed("grid-3x5"), capacity_jitter=0.25
            ),
        ),
        _instance(
            "bipartite-6x6",
            bipartite_graph(6, 6, seed=derive_seed("bipartite-6x6"), connectivity=0.5),
        ),
        _instance("rmat-sparse", rmat_graph(24, 60, seed=derive_seed("rmat-sparse"))),
        _instance("rmat-dense", rmat_graph(16, 80, seed=derive_seed("rmat-dense"))),
    ]


def build_heavy_corpus() -> List[ConformanceInstance]:
    """The heavier randomized instances (``@pytest.mark.slow`` cases)."""
    return [
        _instance(
            "grid-6x10",
            grid_graph(
                6, 10, capacity=2.0, seed=derive_seed("grid-6x10"), capacity_jitter=0.25
            ),
        ),
        _instance(
            "bipartite-12x12",
            bipartite_graph(
                12, 12, seed=derive_seed("bipartite-12x12"), connectivity=0.4
            ),
        ),
        _instance("rmat-large", rmat_graph(60, 220, seed=derive_seed("rmat-large"))),
    ]


# ---------------------------------------------------------------------------
# Backend adapters: every solving path reduced to "network -> flow value"
# ---------------------------------------------------------------------------


def certificate_grade_analog_solver() -> AnalogMaxFlowSolver:
    """The analog configuration the conformance gate holds to tolerance."""
    return AnalogMaxFlowSolver(quantize=False, adaptive_drive=True)


def classical_value(network: FlowNetwork, algorithm: str) -> float:
    """Flow value via one classical registry algorithm (validated)."""
    return solve_max_flow(network, algorithm=algorithm, validate=True).flow_value


def analog_value(network: FlowNetwork) -> float:
    """Flow value via the certificate-grade analog pipeline."""
    return certificate_grade_analog_solver().solve(network).flow_value


def sharded_solve(network: FlowNetwork, shards: int = 2):
    """Full sharded result; ``detail`` carries convergence and bound trajectory."""
    return BatchSolveService(executor="serial").solve(
        network, backend="sharded:dinic", shards=shards, max_iterations=120
    )


def streaming_one_push_value(
    network: FlowNetwork,
    backend: str,
    analog_solver: Optional[AnalogMaxFlowSolver] = None,
) -> float:
    """Open a session on a perturbed snapshot, push the restoring update.

    Perturbing edge 0 before opening and restoring it through ``push``
    guarantees the returned value went through the *warm* incremental path,
    not the session's cold bootstrap solve.
    """
    original = network.edge(0).capacity
    perturbed = network.snapshot()
    perturbed.set_capacity(0, original + 1.0)
    session = StreamingSession(perturbed, backend=backend, analog_solver=analog_solver)
    delta = session.push([CapacityUpdate(0, original)])
    return delta.flow_value


def streaming_analog_pair(network: FlowNetwork):
    """(warm one-push value, cold same-config value) for the analog session."""

    def config() -> AnalogMaxFlowSolver:
        return AnalogMaxFlowSolver(quantize=False, dedicated_clamp_sources=True)

    warm = streaming_one_push_value(network, "analog", analog_solver=config())
    cold = config().solve(network).flow_value
    return warm, cold


def scaled_network(network: FlowNetwork, factor: float) -> FlowNetwork:
    """``network`` with every capacity times ``factor`` (same shape)."""
    out = FlowNetwork(network.source, network.sink)
    for vertex in network.vertices():
        out.add_vertex(vertex)
    for edge in network.edges():
        out.add_edge(edge.tail, edge.head, edge.capacity * factor)
    return out


def relative_gap(value: float, reference: float) -> float:
    """Relative disagreement under the conformance scale convention."""
    return abs(value - reference) / max(1.0, abs(reference))
