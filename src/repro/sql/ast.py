"""Abstract syntax tree for the supported SQL subset.

Nodes are plain frozen dataclasses; the rewriter builds modified copies with
:func:`dataclasses.replace`.  Every expression node implements
``child_expressions()`` (direct sub-expressions) and the module offers
:func:`walk_expression` / :func:`iter_column_refs` / :func:`iter_subqueries`
helpers that the signature-derivation pipeline relies on.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expression:
    """Base class of all expression nodes."""

    def child_expressions(self) -> tuple["Expression", ...]:
        """Direct sub-expressions of this node (not descending into subqueries)."""
        return ()

    def child_selects(self) -> tuple["Select", ...]:
        """Subqueries nested directly under this node."""
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean or NULL (``value is None``)."""

    value: object


@dataclass(frozen=True)
class BitStringLiteral(Expression):
    """A ``b'0101'`` literal; ``bits`` is the raw 0/1 text."""

    bits: str


@dataclass(frozen=True)
class Parameter(Expression):
    """A query parameter placeholder: ``?``, ``$n`` or ``:name``.

    Positional/numbered parameters carry a 1-based ``index``; named
    parameters carry a lower-cased ``name``.  Exactly one of the two is set.
    The value is supplied at execution time through the parameter
    environment, which is what lets one prepared plan serve many bindings.
    """

    index: int | None = None
    name: str | None = None

    @property
    def key(self) -> int | str:
        """The binding key: the index for positional, the name for named."""
        return self.name if self.name is not None else self.index

    @property
    def placeholder(self) -> str:
        """The canonical SQL spelling of this parameter."""
        if self.name is not None:
            return f":{self.name}"
        return f"${self.index}"


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) column reference such as ``t.col`` or ``col``."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*`` in a select list or inside ``count(*)``."""

    table: str | None = None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT x``, ``-x`` or ``+x``."""

    op: str
    operand: Expression

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator application (arithmetic, comparison, AND/OR, ``||``)."""

    op: str
    left: Expression
    right: Expression

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    ``count(*)`` is represented with a single :class:`Star` argument.
    """

    name: str
    args: tuple[Expression, ...] = ()
    distinct: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return self.args


@dataclass(frozen=True)
class Cast(Expression):
    """``CAST(expr AS type)``."""

    operand: Expression
    type_name: str

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (item, item, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def child_selects(self) -> tuple["Select", ...]:
        return (self.subquery,)


@dataclass(frozen=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False

    def child_selects(self) -> tuple["Select", ...]:
        return (self.subquery,)


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesized SELECT used as a scalar value."""

    subquery: "Select"

    def child_selects(self) -> tuple["Select", ...]:
        return (self.subquery,)


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern``."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand, self.pattern)


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def child_expressions(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    operand: Expression | None = None
    else_result: Expression | None = None

    def child_expressions(self) -> tuple[Expression, ...]:
        children: list[Expression] = []
        if self.operand is not None:
            children.append(self.operand)
        for condition, result in self.whens:
            children.append(condition)
            children.append(result)
        if self.else_result is not None:
            children.append(self.else_result)
        return tuple(children)


# ---------------------------------------------------------------------------
# FROM sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableSource:
    """Base class of FROM-clause sources."""


@dataclass(frozen=True)
class TableName(TableSource):
    """A base-table reference with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name this source is visible as in the query."""
        return self.alias or self.name


@dataclass(frozen=True)
class SubquerySource(TableSource):
    """A derived table: ``(SELECT ...) alias``."""

    select: "Select"
    alias: str

    @property
    def binding(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(TableSource):
    """A join of two sources.  ``kind`` is INNER/LEFT/RIGHT/CROSS."""

    left: TableSource
    right: TableSource
    kind: str = "INNER"
    condition: Expression | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of a select list."""

    expression: Expression
    alias: str | None = None


@dataclass(frozen=True)
class OrderItem:
    """One entry of an ORDER BY clause."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Statement:
    """Base class of all statements."""


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement (also used for subqueries)."""

    items: tuple[SelectItem, ...]
    sources: tuple[TableSource, ...] = ()
    where: Expression | None = None
    group_by: tuple[Expression, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False


@dataclass(frozen=True)
class SetOperation(Statement):
    """``<query> UNION|INTERSECT|EXCEPT [ALL] <select>``.

    Set operations are supported at statement level (and are enforced
    branch-by-branch by the monitor); they cannot appear as subqueries.
    ``left`` may itself be a :class:`SetOperation` (left-associative chain).
    """

    left: "Select | SetOperation"
    right: Select
    op: str  # "UNION" | "INTERSECT" | "EXCEPT"
    all: bool = False

    def branches(self) -> list[Select]:
        """The plain SELECT branches, left to right."""
        left_branches = (
            self.left.branches()
            if isinstance(self.left, SetOperation)
            else [self.left]
        )
        return [*left_branches, self.right]


@dataclass(frozen=True)
class Insert(Statement):
    """``INSERT INTO t (cols) VALUES (...), (...)`` or ``INSERT ... SELECT``."""

    table: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Expression, ...], ...] = ()
    select: Select | None = None


@dataclass(frozen=True)
class Update(Statement):
    """``UPDATE t SET col = expr, ... [WHERE ...]``."""

    table: str
    assignments: tuple[tuple[str, Expression], ...] = ()
    where: Expression | None = None


@dataclass(frozen=True)
class Delete(Statement):
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Expression | None = None


@dataclass(frozen=True)
class ColumnDef:
    """A column definition in CREATE TABLE / ALTER TABLE ADD COLUMN."""

    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    default: Expression | None = None


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE t (coldefs...)``."""

    name: str
    columns: tuple[ColumnDef, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class DropTable(Statement):
    """``DROP TABLE t``."""

    name: str


@dataclass(frozen=True)
class AlterTableAddColumn(Statement):
    """``ALTER TABLE t ADD COLUMN coldef``."""

    table: str
    column: ColumnDef


@dataclass(frozen=True)
class AlterTableDropColumn(Statement):
    """``ALTER TABLE t DROP COLUMN name``."""

    table: str
    column_name: str


@dataclass(frozen=True)
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (cols) [USING kind]``.

    ``kind`` selects the structure (``btree`` default, or ``hash``).
    ``INDEX`` and ``USING`` are soft keywords.
    """

    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "btree"


@dataclass(frozen=True)
class DropIndex(Statement):
    """``DROP INDEX name``."""

    name: str


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN [ANALYZE] <select or set-operation>``.

    ``EXPLAIN`` shows the enforced (rewritten) plan without executing it;
    ``EXPLAIN ANALYZE`` executes the statement under a trace and annotates
    the plan with per-node row counts and stage timings.  ``EXPLAIN`` and
    ``ANALYZE`` are soft keywords — they stay usable as identifiers
    everywhere except at the very start of a statement.
    """

    statement: Statement
    analyze: bool = False


@dataclass(frozen=True)
class Begin(Statement):
    """``BEGIN [TRANSACTION | WORK]`` — open a snapshot-isolation transaction.

    Like ``EXPLAIN``/``ANALYZE``, the transaction-control words are soft
    keywords recognized only at the very start of a statement, so columns
    named ``begin`` keep working.
    """


@dataclass(frozen=True)
class Commit(Statement):
    """``COMMIT [TRANSACTION | WORK]`` — first-committer-wins validate + apply."""


@dataclass(frozen=True)
class Rollback(Statement):
    """``ROLLBACK [TRANSACTION | WORK]`` — discard the staged writes."""


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expression(expr: Expression) -> Iterator[Expression]:
    """Yield ``expr`` and all nested expressions (not entering subqueries)."""
    stack: list[Expression] = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.child_expressions())


def iter_column_refs(expr: Expression) -> Iterator[ColumnRef]:
    """Yield every :class:`ColumnRef` in ``expr`` (not entering subqueries)."""
    for node in walk_expression(expr):
        if isinstance(node, ColumnRef):
            yield node


def iter_subqueries(expr: Expression) -> Iterator[Select]:
    """Yield every SELECT nested directly or transitively under ``expr``.

    Only the *top level* of each nested select is yielded; callers recurse
    explicitly if they need deeper levels.
    """
    for node in walk_expression(expr):
        yield from node.child_selects()


def clause_expressions(select: Select) -> Iterator[Expression]:
    """Yield the top-level expressions of every clause of a SELECT."""
    for item in select.items:
        yield item.expression
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order_item in select.order_by:
        yield order_item.expression
    yield from join_conditions(select)


def collect_parameters(statement: "Select | SetOperation") -> list[Parameter]:
    """Every :class:`Parameter` of a statement, subqueries included.

    Used by the prepared-statement machinery to validate bindings before
    execution; duplicates (the same placeholder used twice) appear once.
    """
    seen: dict[object, Parameter] = {}

    def scan_select(select: Select) -> None:
        for source in select_sources(select):
            if isinstance(source, SubquerySource):
                scan_select(source.select)
        for expression in clause_expressions(select):
            for node in walk_expression(expression):
                if isinstance(node, Parameter):
                    seen.setdefault(node.key, node)
                for nested in node.child_selects():
                    scan_select(nested)

    branches = (
        statement.branches() if isinstance(statement, SetOperation) else [statement]
    )
    for branch in branches:
        scan_select(branch)
    return list(seen.values())


def expression_aggregates(expr: Expression, aggregate_names: frozenset[str]) -> list[FunctionCall]:
    """Return the aggregate calls appearing in ``expr`` (outside subqueries)."""
    return [
        node
        for node in walk_expression(expr)
        if isinstance(node, FunctionCall) and node.name.lower() in aggregate_names
    ]


def source_leaves(source: TableSource) -> Iterator[TableSource]:
    """Yield every leaf (non-Join) source of one FROM item."""
    if isinstance(source, Join):
        yield from source_leaves(source.left)
        yield from source_leaves(source.right)
    else:
        yield source


def select_sources(select: Select) -> Iterator[TableSource]:
    """Yield every leaf (non-Join) source of a SELECT's FROM clause."""
    for source in select.sources:
        yield from source_leaves(source)


def join_conditions(select: Select) -> Iterator[Expression]:
    """Yield every join ON condition of a SELECT's FROM clause."""

    def _conditions(source: TableSource) -> Iterator[Expression]:
        if isinstance(source, Join):
            yield from _conditions(source.left)
            yield from _conditions(source.right)
            if source.condition is not None:
                yield source.condition

    for source in select.sources:
        yield from _conditions(source)


def conjoin(left: Expression | None, right: Expression) -> Expression:
    """AND-combine two predicates, treating ``None`` as absent."""
    if left is None:
        return right
    return BinaryOp("AND", left, right)


AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})
"""Names treated as aggregates by the analyzer and executor."""
