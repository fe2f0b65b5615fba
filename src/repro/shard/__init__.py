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
from .partial import MergeColumn, MergeSpec, decompose, merge_rows
from .recipe import BuiltWorld, WorldRecipe, build_world
from .router import (
    Route,
    RoutePlan,
    classify,
    partition_key_indexes,
    partition_rows,
    shard_of,
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
    "partition_rows",
    "shard_of",
]
