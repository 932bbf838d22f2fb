"""Batched solving service (the production front door).

Everything upstream of this package solves *one* instance at a time; this
package turns the reproduction into a serving system:

* :mod:`~repro.service.api` — :class:`SolveRequest` / :class:`SolveResult`
  / :class:`BatchReport`, the wire-level data model;
* :mod:`~repro.service.backends` — the backend registry dispatching each
  request to the analog pipeline, a classical algorithm, or N-way
  dual-decomposition sharding (``"sharded:<engine>"``, over the
  :mod:`repro.shard` subsystem) for instances larger than one
  solver/substrate;
* :mod:`~repro.service.cache` — topology hashing and the compiled-circuit
  LRU memo;
* :mod:`~repro.service.batch` — :class:`BatchSolveService`, the concurrent
  batch executor;
* :mod:`~repro.service.streaming` — :class:`StreamingSession`, incremental
  solving over dynamic networks (push update batches, pull result deltas);
* :mod:`~repro.service.problems` — :class:`ProblemSolveService`, the
  problem→flow reduction front door: solve matchings, disjoint paths,
  segmentations and closures on any backend, with certified decoding
  (:mod:`repro.problems`);
* :mod:`~repro.service.server` — :class:`AsyncSolveServer`, the asyncio
  traffic front door: request coalescing, per-tenant admission control
  with load shedding, and deadline-aware analog-vs-exact routing.

Every service is resilience-aware (:mod:`repro.resilience`): solves accept
wall-clock deadlines, failed backends (sharded ones included) degrade along
validated failover chains, and the fault injector exercises all of it
deterministically.

Quick start::

    from repro import FlowNetwork
    from repro.service import BatchSolveService, SolveRequest

    service = BatchSolveService(max_workers=4)
    report = service.solve_batch(
        [SolveRequest(network=g, backend=b) for g in instances for b in ("dinic", "analog")]
    )
    print(report.format(title="mixed batch"))
"""

from .api import BatchReport, SolveRequest, SolveResult, relative_error
from .backends import (
    AnalogBackend,
    ClassicalBackend,
    ShardedBackend,
    SolveBackend,
    available_backends,
    create_backend,
)
from .batch import BatchSolveService, ParallelMap
from .cache import CompiledCircuitCache, network_signature
from .problems import ProblemReport, ProblemSolve, ProblemSolveService
from .server import AsyncSolveServer, ServerResponse
from .streaming import StreamingDelta, StreamingSession, push_all

__all__ = [
    "BatchReport",
    "SolveRequest",
    "SolveResult",
    "relative_error",
    "SolveBackend",
    "AnalogBackend",
    "ClassicalBackend",
    "ShardedBackend",
    "available_backends",
    "create_backend",
    "BatchSolveService",
    "ParallelMap",
    "AsyncSolveServer",
    "ServerResponse",
    "CompiledCircuitCache",
    "network_signature",
    "ProblemReport",
    "ProblemSolve",
    "ProblemSolveService",
    "StreamingDelta",
    "StreamingSession",
    "push_all",
]
