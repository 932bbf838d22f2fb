"""Benchmark harness: workload suites, experiment runners and reporting.

The modules here are shared by the ``benchmarks/`` directory (one
pytest-benchmark file per paper table/figure) and by the examples; they keep
the experiment definitions — which graphs, which sweeps, which columns — in
library code so they are importable and testable.
"""

from .workloads import (
    Fig10Workload,
    fig10_dense_suite,
    fig10_sparse_suite,
    workload_network,
)
from .runner import BatchServiceSuiteRunner, Fig10Runner, Fig10Row
from .reporting import format_table, format_series, relative
from .assembly import assembly_workload, measure_assembly_class
from .kernel import KERNEL_CLASSES, kernel_workload, measure_kernel_class
from .obs import measure_obs_overhead
from .problems import (
    PROBLEM_CLASSES,
    measure_problems_class,
    problems_workload,
)
from .resilience import (
    RESILIENCE_FAULT_CLASSES,
    measure_recovery_class,
    measure_resilience_overhead,
)
from .serving import measure_coalescing_speedup, measure_serving_mixed
from .shard import (
    SHARD_CLASSES,
    measure_shard_class,
    measure_shard_rmat,
    shard_workload,
)
from .streaming import (
    measure_streaming_class,
    measure_streaming_grid,
    streaming_update_batches,
)

__all__ = [
    "assembly_workload",
    "measure_assembly_class",
    "KERNEL_CLASSES",
    "kernel_workload",
    "measure_kernel_class",
    "PROBLEM_CLASSES",
    "measure_obs_overhead",
    "measure_problems_class",
    "problems_workload",
    "RESILIENCE_FAULT_CLASSES",
    "measure_recovery_class",
    "measure_resilience_overhead",
    "measure_coalescing_speedup",
    "measure_serving_mixed",
    "measure_shard_class",
    "measure_shard_rmat",
    "measure_streaming_class",
    "measure_streaming_grid",
    "shard_workload",
    "SHARD_CLASSES",
    "streaming_update_batches",
    "Fig10Workload",
    "fig10_dense_suite",
    "fig10_sparse_suite",
    "workload_network",
    "Fig10Runner",
    "Fig10Row",
    "BatchServiceSuiteRunner",
    "format_table",
    "format_series",
    "relative",
]
