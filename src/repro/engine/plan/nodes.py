"""The logical-plan IR.

A :class:`~repro.engine.plan.planner.Planner` turns one SELECT block into a
tree of these nodes — the *logical* plan — which the rule-based
:class:`~repro.engine.plan.optimizer.Optimizer` then transforms (predicate
pushdown, ``complieswith``-guard hoisting, projection pruning, constant
folding, hash-join selection) before the executor compiles it into physical
:class:`~repro.engine.executor.SourcePlan` operators.

The node set mirrors the classic relational-operator vocabulary:

========================  ======================================================
node                      meaning
========================  ======================================================
:class:`Scan`             base-table sequential scan (optionally narrowed)
:class:`IndexScan`        equality probe of a secondary index
:class:`IndexRangeScan`   B-tree range scan of a secondary index
:class:`DerivedTable`     a FROM-clause subquery, planned as its own block
:class:`Filter`           a conjunction of predicates over its input
:class:`PolicyGuard`      a hoisted ``complieswith`` conjunct answered from the
                          policy bitmap cache instead of per-row UDF calls
:class:`NestedLoop`       nested-loop (or cross) join
:class:`HashJoin`         equi-join executed by hashing the right side
:class:`Aggregate`        GROUP BY / aggregate evaluation
:class:`Project`          the SELECT list (with DISTINCT)
:class:`Sort`             ORDER BY
:class:`Limit`            LIMIT / OFFSET
:class:`SetOp`            UNION / INTERSECT / EXCEPT over block plans
:class:`Values`           the implicit one-row source of a FROM-less SELECT
========================  ======================================================

Nodes are deliberately mutable: optimizer passes splice filters, guards and
join replacements into the tree in place, then refresh the cached row
shapes bottom-up.
"""

from __future__ import annotations

from typing import Iterable

from ...sql import ast
from ..schema import RowShape


def _print(expr: ast.Expression) -> str:
    from ...sql.printer import print_expression

    return print_expression(expr)


class LogicalNode:
    """Base class of all logical-plan nodes."""

    #: Display name used by :meth:`label` (subclasses override).
    kind = "Node"

    #: The tuple layout this node produces (source-side nodes only).
    shape: RowShape | None = None

    def children(self) -> tuple["LogicalNode", ...]:
        """The node's inputs, left to right."""
        return ()

    def label(self) -> str:
        """One-line description of this node for logical EXPLAIN output."""
        return self.kind

    def render(self, indent: int = 0) -> list[str]:
        """The logical subtree as indented EXPLAIN lines."""
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.extend(child.render(indent + 1))
        return lines


class Values(LogicalNode):
    """The implicit single-row, zero-column source of a FROM-less SELECT."""

    kind = "Values"

    def __init__(self) -> None:
        self.shape = RowShape([])

    def label(self) -> str:
        return "Values (one row)"


class Scan(LogicalNode):
    """A sequential scan of one base table.

    ``kept`` is ``None`` for a full-width scan; after projection pruning it
    is the tuple of surviving column names (schema order) and :attr:`shape`
    is narrowed accordingly.
    """

    kind = "Scan"

    def __init__(self, table_name: str, binding: str, shape: RowShape):
        self.table_name = table_name
        self.binding = binding
        self.shape = shape
        self.kept: tuple[str, ...] | None = None

    def label(self) -> str:
        text = f"Scan {self.table_name}"
        if self.binding != self.table_name.lower():
            text += f" as {self.binding}"
        if self.kept is not None:
            text += f" (cols: {', '.join(self.kept)})"
        return text


class IndexScan(Scan):
    """An equality probe of a secondary index.

    ``columns`` is the leading run of the index's key columns the probe
    binds — all of them (one tree descent / hash probe) or, on a B-tree, a
    proper prefix (a leaf walk while the prefix matches).  ``values`` holds
    one entry per column: the literal's value, or the :class:`ast.Parameter`
    itself, resolved from the parameter environment on every execution so
    one prepared plan probes with each binding.

    Subclasses :class:`Scan` so every shape/pruning pass that handles
    scans handles index scans identically; the executor compiles it into a
    row-id lookup against the :class:`~repro.engine.index.IndexManager`
    instead of a sequential walk.  The ``matched`` conjuncts deliberately
    stay in the residual filter (a *recheck*): the index only narrows the
    candidate rows, so dropping the index — or probing with a value the
    tree cannot compare — can never change results.
    """

    kind = "IndexScan"

    def __init__(
        self,
        scan: Scan,
        index_name: str,
        columns: tuple[str, ...],
        values: tuple[object, ...],
        estimated_rows: int | None = None,
        matched: tuple[ast.Expression, ...] = (),
    ):
        super().__init__(scan.table_name, scan.binding, scan.shape)
        self.kept = scan.kept
        self.index_name = index_name
        self.columns = columns
        self.values = values
        self.estimated_rows = estimated_rows
        self.matched = matched

    def predicate(self) -> str:
        """The probed condition, as EXPLAIN shows it."""
        return " and ".join(
            f"{column} = {_print_value(value)}"
            for column, value in zip(self.columns, self.values)
        )

    def label(self) -> str:
        text = f"{self.kind} {self.table_name}"
        if self.binding != self.table_name.lower():
            text += f" as {self.binding}"
        text += f" using {self.index_name} [{self.predicate()}]"
        if self.estimated_rows is not None:
            text += f" (est={self.estimated_rows})"
        if self.kept is not None:
            text += f" (cols: {', '.join(self.kept)})"
        return text


def _print_value(value: object) -> str:
    if isinstance(value, ast.Parameter):
        return _print(value)
    return _print(ast.Literal(value))


class IndexRangeScan(IndexScan):
    """A B-tree range scan (``column < / <= / > / >= / BETWEEN literals``).

    Emits candidate row ids in ascending storage order, so downstream
    operators observe the same row order a sequential scan plus filter
    would.
    """

    kind = "IndexRangeScan"

    def __init__(
        self,
        scan: Scan,
        index_name: str,
        column: str,
        lower: object = None,
        upper: object = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        estimated_rows: int | None = None,
        matched: tuple[ast.Expression, ...] = (),
    ):
        super().__init__(
            scan, index_name, (column,), (), estimated_rows, matched
        )
        self.lower = lower
        self.upper = upper
        self.lower_inclusive = lower_inclusive
        self.upper_inclusive = upper_inclusive

    def predicate(self) -> str:
        (column,) = self.columns
        parts = []
        if self.lower is not None:
            op = ">=" if self.lower_inclusive else ">"
            parts.append(f"{column} {op} {_print_value(self.lower)}")
        if self.upper is not None:
            op = "<=" if self.upper_inclusive else "<"
            parts.append(f"{column} {op} {_print_value(self.upper)}")
        return " and ".join(parts) if parts else f"{column} unbounded"


class DerivedTable(LogicalNode):
    """A FROM-clause subquery; the inner block is planned independently."""

    kind = "DerivedTable"

    def __init__(self, alias: str, select: ast.Select, prepared, shape: RowShape):
        self.alias = alias
        self.select = select
        #: The inner block's :class:`~repro.engine.executor.PreparedSelect`.
        self.prepared = prepared
        self.shape = shape

    def children(self) -> tuple[LogicalNode, ...]:
        block = getattr(self.prepared, "block", None)
        return (block.root,) if block is not None else ()

    def label(self) -> str:
        return f"DerivedTable {self.alias}"


class Filter(LogicalNode):
    """A conjunction of predicates applied to one input.

    When built from a decomposable WHERE clause the predicate is kept as the
    ordered ``conjuncts`` list (what pushdown consumes); otherwise —
    outer-join blocks, where pushdown is unsafe — the undecomposed
    ``original`` expression is carried instead.  ``pushed`` marks leaf
    filters created by the pushdown pass.
    """

    kind = "Filter"

    def __init__(
        self,
        conjuncts: list[ast.Expression] | None,
        original: ast.Expression | None,
        input: LogicalNode,
        pushed: bool = False,
    ):
        self.conjuncts = conjuncts
        self.original = original
        self.input = input
        self.pushed = pushed

    @property
    def shape(self) -> RowShape | None:  # type: ignore[override]
        return self.input.shape

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.input,)

    def is_empty(self) -> bool:
        """True when every conjunct has been claimed elsewhere."""
        return self.original is None and not self.conjuncts

    def residual_expression(self) -> ast.Expression | None:
        """The remaining predicate as one AND-chain (original order)."""
        if self.original is not None:
            return self.original
        residual: ast.Expression | None = None
        for expression in self.conjuncts or []:
            residual = (
                expression
                if residual is None
                else ast.BinaryOp("AND", residual, expression)
            )
        return residual

    def render(self, indent: int = 0) -> list[str]:
        # A fully claimed filter is a no-op; rendering "Filter [true]" would
        # suggest residual work, so the node disappears from the plan text.
        if self.is_empty():
            return self.input.render(indent)
        return super().render(indent)

    def label(self) -> str:
        expression = self.residual_expression()
        rendered = _print(expression) if expression is not None else "true"
        return f"Filter [{rendered}]"


class PolicyGuard(LogicalNode):
    """A hoisted per-table ``complieswith`` conjunct over a base-table scan.

    The guards are the rewriter's Def.-15 conjuncts verbatim; at execution
    time they are answered from the
    :class:`~repro.engine.plan.bitmap.PolicyBitmapCache` — one UDF call per
    *distinct* policy value per mask, then a row-index set intersection —
    instead of one UDF call per row.

    The bitmap is a set of *row ids* of the guarded table, so ``scan`` must
    produce that table's rows with nothing in between: either every row in
    storage order (a :class:`Scan`, ids are positions) or an access path
    that knows the id of each row it yields (an :class:`IndexScan`, whose
    candidates the guard intersects with the bitmap).  ``table_name`` and
    ``binding`` pin the guarded table so the optimizer can assert that a
    replaced ``scan`` still reads it.
    """

    kind = "PolicyGuard"

    def __init__(self, guards: list[ast.FunctionCall], scan: Scan):
        self.guards = guards
        self.scan = scan
        self.table_name = scan.table_name
        self.binding = scan.binding

    @property
    def shape(self) -> RowShape | None:  # type: ignore[override]
        return self.scan.shape

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.scan,)

    def label(self) -> str:
        rendered = " and ".join(_print(guard) for guard in self.guards)
        return f"PolicyGuard [{rendered}]"


class NestedLoop(LogicalNode):
    """A nested-loop join (``condition is None`` means cross join)."""

    kind = "NestedLoop"

    def __init__(
        self,
        join_kind: str,
        condition: ast.Expression | None,
        left: LogicalNode,
        right: LogicalNode,
        shape: RowShape,
    ):
        self.join_kind = join_kind
        self.condition = condition
        self.left = left
        self.right = right
        self.shape = shape

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        if self.condition is None:
            return "NestedLoop (cross)"
        return f"NestedLoop ({self.join_kind.lower()}) on {_print(self.condition)}"


class HashJoin(LogicalNode):
    """An equi-join selected by the ``hash_join_selection`` pass."""

    kind = "HashJoin"

    def __init__(
        self,
        join_kind: str,
        equi_pairs: list[tuple[ast.Expression, ast.Expression]],
        residual: ast.Expression | None,
        left: LogicalNode,
        right: LogicalNode,
        shape: RowShape,
    ):
        self.join_kind = join_kind
        self.equi_pairs = equi_pairs
        self.residual = residual
        self.left = left
        self.right = right
        self.shape = shape
        #: Which input is hashed.  The legacy choice is ``"right"``; the
        #: optimizer flips INNER joins to ``"left"`` when fresh statistics
        #: say the left input is smaller.
        self.build_side: str = "right"

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(
            f"{_print(le)} = {_print(re)}" for le, re in self.equi_pairs
        )
        text = f"HashJoin ({self.join_kind.lower()}) on {keys}"
        if self.build_side != "right":
            text += f" (build: {self.build_side})"
        return text


class Aggregate(LogicalNode):
    """GROUP BY / aggregate evaluation over one input."""

    kind = "Aggregate"

    def __init__(self, group_by: tuple[ast.Expression, ...], input: LogicalNode):
        self.group_by = group_by
        self.input = input

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.input,)

    def label(self) -> str:
        if not self.group_by:
            return "Aggregate"
        keys = ", ".join(_print(e) for e in self.group_by)
        return f"Aggregate group by [{keys}]"


class Project(LogicalNode):
    """The SELECT list (plus DISTINCT) over one input."""

    kind = "Project"

    def __init__(
        self,
        items: tuple[ast.SelectItem, ...],
        distinct: bool,
        input: LogicalNode,
    ):
        self.items = items
        self.distinct = distinct
        self.input = input

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.input,)

    def label(self) -> str:
        rendered = ", ".join(
            "*" if isinstance(item.expression, ast.Star) and item.expression.table is None
            else f"{item.expression.table}.*" if isinstance(item.expression, ast.Star)
            else _print(item.expression)
            for item in self.items
        )
        prefix = "Project distinct" if self.distinct else "Project"
        return f"{prefix} [{rendered}]"


class Sort(LogicalNode):
    """ORDER BY over one input."""

    kind = "Sort"

    def __init__(self, order_by: tuple[ast.OrderItem, ...], input: LogicalNode):
        self.order_by = order_by
        self.input = input

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.input,)

    def label(self) -> str:
        keys = ", ".join(
            _print(item.expression) + (" desc" if item.descending else "")
            for item in self.order_by
        )
        return f"Sort [{keys}]"


class Limit(LogicalNode):
    """LIMIT / OFFSET over one input."""

    kind = "Limit"

    def __init__(self, limit: int | None, offset: int | None, input: LogicalNode):
        self.limit = limit
        self.offset = offset
        self.input = input

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.input,)

    def label(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        if self.offset is not None:
            parts.append(f"offset {self.offset}")
        return f"Limit [{' '.join(parts)}]"


class SetOp(LogicalNode):
    """A UNION / INTERSECT / EXCEPT chain over per-block logical plans."""

    kind = "SetOp"

    def __init__(self, ops: list[str], branches: list[LogicalNode]):
        self.ops = ops
        self.branches = branches

    def children(self) -> tuple[LogicalNode, ...]:
        return tuple(self.branches)

    def label(self) -> str:
        return f"SetOp [{' '.join(op.lower() for op in self.ops)}]"


def walk(node: LogicalNode) -> Iterable[LogicalNode]:
    """Depth-first, left-to-right iteration over a logical tree."""
    yield node
    for child in node.children():
        yield from walk(child)
