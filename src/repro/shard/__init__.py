"""N-way partitioned solving (the sharding subsystem).

Instances larger than one solver — or one analog substrate — are split into
``N`` overlapping shards and coordinated to a global optimum by dual
decomposition, generalising the two-way scheme of Section 6.4 / Strandmark
& Kahl [39] to arbitrary shard counts:

* :mod:`~repro.shard.partition` — the multi-way overlapping partitioner
  (BFS / geometric vertex orderings, overlap bands between adjacent shard
  pairs, share-divided edge capacities preserving the objective sum);
* :mod:`~repro.shard.executor` — parallel shard execution over the
  service executor layer: every shard runs one engine (a classical
  algorithm or the analog substrate) and re-solves warm through its own
  :class:`~repro.service.streaming.StreamingSession`;
* :mod:`~repro.shard.coordinator` — the projected-subgradient dual
  coordinator with chain consistency multipliers, stitched feasible cuts
  and bound-gap convergence.

Services reach it as the ``"sharded:<engine>"`` backend
(:class:`repro.service.backends.ShardedBackend`), so a sharded request
takes the same solve path — deadlines, failover, spans — as any other.
"""

from .partition import MultiwayPartition, partition_multiway
from .executor import ShardExecutor, ShardSolve
from .coordinator import ShardCoordinator, ShardOutcome

__all__ = [
    "MultiwayPartition",
    "partition_multiway",
    "ShardExecutor",
    "ShardSolve",
    "ShardCoordinator",
    "ShardOutcome",
]
