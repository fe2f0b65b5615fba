"""Logical plans and the rule-based optimizer.

The plan subsystem splits SELECT processing into three explicit stages
(DESIGN.md §11): a :class:`Planner` builds the FROM-tree IR from the
(rewritten) AST, an :class:`Optimizer` runs an ordered pass pipeline over
it, and the executor compiles the optimized IR into physical operators.
:class:`PolicyBitmapCache` backs the ``policy_guard_hoist`` pass, answering
the rewriter's per-table ``complieswith`` conjuncts from policy posting
lists — one UDF evaluation per *distinct* policy value instead of one per
row.
"""

from .bitmap import PolicyBitmapCache
from .nodes import (
    DerivedTable,
    Filter,
    HashJoin,
    IndexRangeScan,
    IndexScan,
    LogicalNode,
    NestedLoop,
    PolicyGuard,
    Scan,
    Values,
    walk,
)
from .optimizer import (
    BASELINE_PASSES,
    FULL_PASSES,
    Optimizer,
    best_index_path,
    check_access_paths,
    resolve_optimizer_mode,
    split_equi_condition,
)
from .planner import BlockPlan, Planner, flatten_conjuncts, has_outer_join

__all__ = [
    "BASELINE_PASSES",
    "BlockPlan",
    "DerivedTable",
    "FULL_PASSES",
    "Filter",
    "HashJoin",
    "IndexRangeScan",
    "IndexScan",
    "LogicalNode",
    "NestedLoop",
    "Optimizer",
    "Planner",
    "PolicyBitmapCache",
    "PolicyGuard",
    "Scan",
    "Values",
    "best_index_path",
    "check_access_paths",
    "flatten_conjuncts",
    "has_outer_join",
    "resolve_optimizer_mode",
    "split_equi_condition",
    "walk",
]
