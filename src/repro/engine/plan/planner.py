"""Planning: rewritten AST → plan IR.

The :class:`Planner` translates one SELECT block into a :class:`BlockPlan`:
a FROM tree of :class:`~repro.engine.plan.nodes.Scan` /
:class:`~repro.engine.plan.nodes.DerivedTable` /
:class:`~repro.engine.plan.nodes.NestedLoop` nodes under the block's WHERE
:class:`~repro.engine.plan.nodes.Filter`.  Grouping, projection, ordering
and LIMIT stay in the AST, where the executor runs them.  The planner
performs *no* optimization — every conditioned join starts as a nested loop and the
whole WHERE clause sits in the block filter — so the optimizer's pass
pipeline is the only place plans change shape, and ``optimizer=off`` can
reproduce the legacy executor's behavior exactly by running the legacy
subset of passes.
"""

from __future__ import annotations

from ...sql import ast
from ..schema import ColumnBinding, RowShape
from .nodes import DerivedTable, Filter, LogicalNode, NestedLoop, Scan, Values


def has_outer_join(sources: tuple[ast.TableSource, ...]) -> bool:
    """True when the FROM tree contains a LEFT or RIGHT join."""

    def scan(source: ast.TableSource) -> bool:
        if isinstance(source, ast.Join):
            if source.kind in ("LEFT", "RIGHT"):
                return True
            return scan(source.left) or scan(source.right)
        return False

    return any(scan(source) for source in sources)


class BlockPlan:
    """One SELECT block's plan IR plus optimizer bookkeeping.

    ``source_root`` is the FROM tree the optimizer rewrites; ``filter`` the
    block's WHERE holder, whose input is ``source_root``.  ``binder_shape``
    snapshots the block's merged row shape *before* any pass runs: pushed-down conjuncts
    are re-resolved against it block-wide, because later passes (projection
    pruning) may narrow the physical shapes past what name resolution saw.
    """

    def __init__(
        self,
        select: ast.Select,
        source_root: LogicalNode,
        filter: Filter | None,
        binder_shape: RowShape,
    ):
        self.select = select
        self.source_root = source_root
        self.filter = filter
        self.binder_shape = binder_shape
        #: Conjuncts claimed by predicate pushdown, in original WHERE order.
        self.claimed: list[ast.Expression] = []
        #: ``complieswith`` conjuncts hoisted into PolicyGuard nodes.
        self.hoisted: list[ast.FunctionCall] = []
        #: Human-readable per-pass annotations for EXPLAIN.
        self.notes: list[str] = []

    def residual_where(self) -> ast.Expression | None:
        """The WHERE predicate left after optimization (original order)."""
        if self.filter is None:
            return None
        return self.filter.residual_expression()


class Planner:
    """Builds :class:`BlockPlan` trees for a :class:`SelectExecutor`."""

    def __init__(self, executor):
        self.executor = executor
        self.database = executor.database

    def plan_block(self, select: ast.Select) -> BlockPlan:
        source_root = self._plan_sources(select.sources)
        binder_shape = source_root.shape

        block_filter: Filter | None = None
        if select.where is not None:
            if has_outer_join(select.sources):
                # Filtering below an outer join would change NULL-padding
                # semantics, so the predicate is kept whole: pushdown (and
                # therefore guard hoisting) never decomposes it.
                block_filter = Filter(None, select.where, source_root)
            else:
                block_filter = Filter(
                    flatten_conjuncts(select.where), None, source_root
                )
        return BlockPlan(select, source_root, block_filter, binder_shape)

    # -- FROM planning -----------------------------------------------------------

    def _plan_sources(self, sources: tuple[ast.TableSource, ...]) -> LogicalNode:
        if not sources:
            return Values()
        node = self._plan_source(sources[0])
        for source in sources[1:]:
            right = self._plan_source(source)
            node = NestedLoop(
                "CROSS", None, node, right, node.shape.merged_with(right.shape)
            )
        return node

    def _plan_source(self, source: ast.TableSource) -> LogicalNode:
        if isinstance(source, ast.TableName):
            return self._plan_table(source)
        if isinstance(source, ast.SubquerySource):
            return self._plan_derived(source)
        if isinstance(source, ast.Join):
            left = self._plan_source(source.left)
            right = self._plan_source(source.right)
            shape = left.shape.merged_with(right.shape)
            if source.kind == "CROSS" or source.condition is None:
                return NestedLoop("CROSS", None, left, right, shape)
            return NestedLoop(source.kind, source.condition, left, right, shape)
        from ...errors import ExecutionError

        raise ExecutionError(f"unsupported FROM source {type(source).__name__}")

    def _plan_table(self, source: ast.TableName) -> Scan:
        table = self.database.table(source.name)
        binding_name = source.binding.lower()
        bindings = [
            ColumnBinding(
                binding_name,
                column.name.lower(),
                index,
                column.sql_type,
                table.name.lower(),
                column.name.lower(),
            )
            for index, column in enumerate(table.schema.columns)
        ]
        return Scan(table.name, binding_name, RowShape(bindings))

    def _plan_derived(self, source: ast.SubquerySource) -> DerivedTable:
        # Derived tables cannot be correlated (no LATERAL support), so the
        # inner block is planned without access to the enclosing scope.
        prepared = self.executor.prepare_block(source.select, parent_scope=None)
        alias = source.alias.lower()
        bindings = [
            ColumnBinding(
                alias,
                binding.name,
                index,
                binding.sql_type,
                binding.base_table,
                binding.base_column,
            )
            for index, binding in enumerate(prepared.output_bindings)
        ]
        return DerivedTable(alias, source.select, prepared, RowShape(bindings))


def flatten_conjuncts(where: ast.Expression) -> list[ast.Expression]:
    """AND-flatten a WHERE clause, preserving source order."""
    stack = [where]
    ordered: list[ast.Expression] = []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BinaryOp) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            ordered.append(node)
    # The stack pops left-first, so `ordered` preserves source order.
    return ordered

