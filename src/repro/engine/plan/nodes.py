"""The plan IR: a SELECT block's FROM tree.

A :class:`~repro.engine.plan.planner.Planner` turns one SELECT block's FROM
clause and WHERE into a tree of these nodes, which the rule-based
:class:`~repro.engine.plan.optimizer.Optimizer` then transforms (predicate
pushdown, ``complieswith``-guard hoisting, projection pruning, constant
folding, hash-join selection) before the executor compiles it into physical
:class:`~repro.engine.executor.SourcePlan` operators.  Grouping,
projection, ordering and LIMIT are not nodes: the executor runs them from
the block's AST, and EXPLAIN prints the physical tree.

The node set:

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


class LogicalNode:
    """Base class of all plan-IR nodes."""

    #: The tuple layout this node produces.
    shape: RowShape | None = None

    def children(self) -> tuple["LogicalNode", ...]:
        """The node's inputs, left to right."""
        return ()


class Values(LogicalNode):
    """The implicit single-row, zero-column source of a FROM-less SELECT."""

    def __init__(self) -> None:
        self.shape = RowShape([])


class Scan(LogicalNode):
    """A sequential scan of one base table.

    ``kept`` is ``None`` for a full-width scan; after projection pruning it
    is the tuple of surviving column names (schema order) and :attr:`shape`
    is narrowed accordingly.
    """

    def __init__(self, table_name: str, binding: str, shape: RowShape):
        self.table_name = table_name
        self.binding = binding
        self.shape = shape
        self.kept: tuple[str, ...] | None = None


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

    def __init__(
        self,
        scan: Scan,
        index_name: str,
        columns: tuple[str, ...],
        values: tuple[object, ...],
        matched: tuple[ast.Expression, ...] = (),
    ):
        super().__init__(scan.table_name, scan.binding, scan.shape)
        self.kept = scan.kept
        self.index_name = index_name
        self.columns = columns
        self.values = values
        self.matched = matched
        #: Unmatched conjuncts ahead of the last matched one (``best_index_path``).
        self.ahead: tuple[ast.Expression, ...] = ()

    def predicate(self) -> str:
        """The probed condition, as EXPLAIN shows it."""
        return " and ".join(
            f"{column} = {_print_value(value)}"
            for column, value in zip(self.columns, self.values)
        )


def _print_value(value: object) -> str:
    from ...sql.printer import print_expression

    if not isinstance(value, ast.Parameter):
        value = ast.Literal(value)
    return print_expression(value)


class IndexRangeScan(IndexScan):
    """A B-tree range scan (``column < / <= / > / >= / BETWEEN literals``).

    Emits candidate row ids in ascending storage order, so downstream
    operators observe the same row order a sequential scan plus filter
    would.
    """

    def __init__(
        self,
        scan: Scan,
        index_name: str,
        column: str,
        lower: object = None,
        upper: object = None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        matched: tuple[ast.Expression, ...] = (),
    ):
        super().__init__(scan, index_name, (column,), (), matched)
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

    def __init__(self, alias: str, select: ast.Select, prepared, shape: RowShape):
        self.alias = alias
        self.select = select
        #: The inner block's :class:`~repro.engine.executor.PreparedSelect`.
        self.prepared = prepared
        self.shape = shape

    def children(self) -> tuple[LogicalNode, ...]:
        block = self.prepared.block
        return (block.source_root if block.filter is None else block.filter,)


class Filter(LogicalNode):
    """A conjunction of predicates applied to one input.

    When built from a decomposable WHERE clause the predicate is kept as the
    ordered ``conjuncts`` list (what pushdown consumes); otherwise —
    outer-join blocks, where pushdown is unsafe — the undecomposed
    ``original`` expression is carried instead.  ``pushed`` marks leaf
    filters created by the pushdown pass.
    """

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


class PolicyGuard(LogicalNode):
    """A hoisted per-table ``complieswith`` conjunct over a base-table scan.

    The guards are the rewriter's Def.-15 conjuncts verbatim; at execution
    time they are answered from the
    :class:`~repro.engine.plan.bitmap.PolicyBitmapCache` — one UDF call per
    *distinct* policy value per mask — instead of one UDF call per row.

    The guard answers in *row ids* of the guarded table, so ``scan`` must
    produce that table's rows with nothing in between: either every row in
    storage order (a :class:`Scan`, ids are positions) or an access path
    that knows the id of each row it yields (an :class:`IndexScan`, whose
    candidates the guard keeps when their policy value passes).
    ``table_name`` and ``binding`` pin the guarded table so the optimizer
    can assert that a replaced ``scan`` still reads it.
    """

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


class NestedLoop(LogicalNode):
    """A nested-loop join (``condition is None`` means cross join)."""

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


class HashJoin(LogicalNode):
    """An equi-join selected by the ``hash_join_selection`` pass."""

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
        #: Which input is hashed: ``"right"`` (the legacy choice), or
        #: ``"smaller"`` — set by the full pipeline on INNER joins — for
        #: whichever input the executor finds smaller on each execution.
        self.build_side: str = "right"

    def children(self) -> tuple[LogicalNode, ...]:
        return (self.left, self.right)


def walk(node: LogicalNode) -> Iterable[LogicalNode]:
    """Depth-first, left-to-right iteration over a plan tree."""
    yield node
    for child in node.children():
        yield from walk(child)
