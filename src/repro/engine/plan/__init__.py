"""Logical plans and the rule-based optimizer.

The plan subsystem splits SELECT processing into three explicit stages
(DESIGN.md §11): a :class:`Planner` builds a logical-plan IR from the
(rewritten) AST, an :class:`Optimizer` runs an ordered pass pipeline over
it, and the executor compiles the optimized IR into physical operators.
:class:`PolicyBitmapCache` backs the ``policy_guard_hoist`` pass, answering
the rewriter's per-table ``complieswith`` conjuncts with cached row-index
sets — one UDF evaluation per *distinct* policy value instead of one per
row.
"""

from .bitmap import PolicyBitmapCache
from .nodes import (
    Aggregate,
    DerivedTable,
    Filter,
    HashJoin,
    IndexRangeScan,
    IndexScan,
    Limit,
    LogicalNode,
    NestedLoop,
    PolicyGuard,
    Project,
    Scan,
    SetOp,
    Sort,
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
    "Aggregate",
    "BASELINE_PASSES",
    "BlockPlan",
    "DerivedTable",
    "FULL_PASSES",
    "Filter",
    "HashJoin",
    "IndexRangeScan",
    "IndexScan",
    "Limit",
    "LogicalNode",
    "NestedLoop",
    "Optimizer",
    "Planner",
    "PolicyBitmapCache",
    "PolicyGuard",
    "Project",
    "Scan",
    "SetOp",
    "Sort",
    "Values",
    "best_index_path",
    "check_access_paths",
    "flatten_conjuncts",
    "has_outer_join",
    "resolve_optimizer_mode",
    "split_equi_condition",
    "walk",
]
