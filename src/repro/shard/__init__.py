"""Hash-sharded scale-out execution for the enforcement monitor.

The package splits one logical deployment into a scatter-gather
:class:`ShardCoordinator` (full local replica + routing + merge) and N
:class:`ShardWorker` replicas, each pruned to one hash partition of every
table.  Worlds are rebuilt from deterministic :class:`WorldRecipe`
descriptions rather than copied; policy and DML writes reach shards
through a fenced two-phase epoch broadcast.  See DESIGN.md §14 for the architecture.
"""

from .coordinator import (
    AsyncReadWriteLock,
    EPOCH_RETRIES,
    ShardCoordinator,
    ShardedReport,
    SplitEpochError,
)
# Re-exported: benchmarks/e2e imports them from here.
from ..workload.recipe import BuiltWorld, WorldRecipe, build_world
from .partial import MergeColumn, MergeSpec, decompose, merge_rows
from .router import (
    Route,
    RoutePlan,
    classify,
    partition_key_indexes,
    shard_of,
    split_rows,
)
from .worker import InlineShard, ShardWorker

__all__ = [
    "AsyncReadWriteLock",
    "BuiltWorld",
    "EPOCH_RETRIES",
    "InlineShard",
    "MergeColumn",
    "MergeSpec",
    "Route",
    "RoutePlan",
    "ShardCoordinator",
    "ShardWorker",
    "ShardedReport",
    "SplitEpochError",
    "WorldRecipe",
    "build_world",
    "classify",
    "decompose",
    "merge_rows",
    "partition_key_indexes",
    "shard_of",
    "split_rows",
]
