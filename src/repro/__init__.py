"""repro — reproduction of "A Reconfigurable Analog Substrate for Highly
Efficient Maximum Flow Computation" (Liu & Zhang, DAC 2015).

The package is organised by subsystem:

* :mod:`repro.graph` — flow networks, generators (R-MAT, grids, ...), I/O;
* :mod:`repro.flows` — classical max-flow algorithms (push-relabel, Dinic,
  Edmonds-Karp, Ford-Fulkerson, LP reference) and the CPU cost model;
* :mod:`repro.circuit` — the analog circuit simulator (MNA, DC, transient);
* :mod:`repro.analoglp` — the generic analog LP substrate of [42];
* :mod:`repro.analog` — the paper's contribution: the analog max-flow
  compiler/solver, quantization, convergence analysis, min-cut dual and the
  quasi-static dynamics;
* :mod:`repro.crossbar` — the reconfigurable memristor crossbar, programming
  protocol, variation/tuning and the clustered island architectures;
* :mod:`repro.shard` — partitioned solving for instances larger than one
  substrate (Section 6.4, N-way): multi-way overlapping partitioner,
  parallel shard executor (classical or analog, warm re-solves) and the
  subgradient dual coordinator;
* :mod:`repro.power` — the analytical power/energy model;
* :mod:`repro.problems` — problem→flow reductions (bipartite matching,
  disjoint paths, image segmentation, project selection) with certified
  decoding via max-flow/min-cut duality;
* :mod:`repro.bench` — workload suites and experiment runners used by the
  ``benchmarks/`` directory;
* :mod:`repro.service` — the batched solving service: backend registry
  (analog + classical), worker pools, compiled-circuit memoization and
  aggregate batch reports;
* :mod:`repro.obs` — observability: ambient hierarchical spans, the
  process metrics registry, typed solver/resilience probes and the
  unified ``telemetry()`` document (off by default; ``REPRO_OBS=1``).

Quick start::

    from repro import FlowNetwork, AnalogMaxFlowSolver, push_relabel

    g = FlowNetwork(source="s", sink="t")
    g.add_edge("s", "a", 3.0)
    g.add_edge("a", "t", 2.0)

    exact = push_relabel(g).flow_value
    analog = AnalogMaxFlowSolver(adaptive_drive=True).solve(g).flow_value
"""

from .config import (
    NonIdealityModel,
    OpAmpParameters,
    MemristorParameters,
    DiodeParameters,
    SubstrateParameters,
    TABLE1,
    default_parameters,
    ideal_nonidealities,
)
from .errors import ReproError
from .graph import (
    Edge,
    FlowNetwork,
    RMATGenerator,
    rmat_graph,
    dense_random_graph,
    sparse_random_graph,
    grid_graph,
    layered_graph,
    bipartite_graph,
    path_graph,
    parallel_paths_graph,
    paper_example_graph,
    quasistatic_example_graph,
    read_dimacs,
    write_dimacs,
)
from .flows import (
    MaxFlowResult,
    dinic,
    edmonds_karp,
    ford_fulkerson,
    push_relabel,
    solve_lp_maxflow,
    solve_max_flow,
    min_cut,
    CpuCostModel,
)
from .analog import (
    AnalogMaxFlowResult,
    AnalogMaxFlowSolver,
    AnalogMinCutSolver,
    ConvergenceTimeEstimator,
    MaxFlowCircuitCompiler,
    QuasiStaticAnalyzer,
    VoltageQuantizer,
    measure_convergence_time,
)
from .crossbar import (
    ClusteredArchitecture,
    CrossbarMaxFlowEngine,
    CrossbarSubstrate,
    ProgrammingProtocol,
)
from .power import PowerModel, compare_energy
from .problems import (
    BipartiteMatching,
    CertificateReport,
    DisjointPaths,
    ImageSegmentation,
    ProjectSelection,
    solve_problem,
)
from .obs import (
    MetricsRegistry,
    Span,
    annotate_span,
    current_span,
    get_registry,
    obs_enabled,
    reset_metrics,
    set_obs_enabled,
    span,
    span_scope,
)
from .resilience import (
    CircuitBreaker,
    Deadline,
    FailoverPolicy,
    RetryPolicy,
    deadline_scope,
    inject_faults,
    solve_with_failover,
)
from .service import (
    BatchReport,
    BatchSolveService,
    ProblemSolveService,
    SolveRequest,
    SolveResult,
)
from .shard import ShardCoordinator, partition_multiway

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "NonIdealityModel",
    "OpAmpParameters",
    "MemristorParameters",
    "DiodeParameters",
    "SubstrateParameters",
    "TABLE1",
    "default_parameters",
    "ideal_nonidealities",
    "ReproError",
    # graphs
    "Edge",
    "FlowNetwork",
    "RMATGenerator",
    "rmat_graph",
    "dense_random_graph",
    "sparse_random_graph",
    "grid_graph",
    "layered_graph",
    "bipartite_graph",
    "path_graph",
    "parallel_paths_graph",
    "paper_example_graph",
    "quasistatic_example_graph",
    "read_dimacs",
    "write_dimacs",
    # classical algorithms
    "MaxFlowResult",
    "dinic",
    "edmonds_karp",
    "ford_fulkerson",
    "push_relabel",
    "solve_lp_maxflow",
    "solve_max_flow",
    "min_cut",
    "CpuCostModel",
    # analog substrate
    "AnalogMaxFlowResult",
    "AnalogMaxFlowSolver",
    "AnalogMinCutSolver",
    "ConvergenceTimeEstimator",
    "MaxFlowCircuitCompiler",
    "QuasiStaticAnalyzer",
    "VoltageQuantizer",
    "measure_convergence_time",
    # crossbar
    "ClusteredArchitecture",
    "CrossbarMaxFlowEngine",
    "CrossbarSubstrate",
    "ProgrammingProtocol",
    # extensions
    "PowerModel",
    "compare_energy",
    # N-way sharding
    "ShardCoordinator",
    "partition_multiway",
    # problem reductions
    "BipartiteMatching",
    "CertificateReport",
    "DisjointPaths",
    "ImageSegmentation",
    "ProjectSelection",
    "ProblemSolveService",
    "solve_problem",
    # batched solving service
    "BatchReport",
    "BatchSolveService",
    "SolveRequest",
    "SolveResult",
    # resilience
    "CircuitBreaker",
    "Deadline",
    "FailoverPolicy",
    "RetryPolicy",
    "deadline_scope",
    "inject_faults",
    "solve_with_failover",
    # observability
    "MetricsRegistry",
    "Span",
    "annotate_span",
    "current_span",
    "get_registry",
    "obs_enabled",
    "reset_metrics",
    "set_obs_enabled",
    "span",
    "span_scope",
]
