"""Greedy failure minimization for differential-testing cases.

Given a failing :class:`~.generator.FuzzCase`, the shrinker repeatedly
applies structural simplifications to the parsed statement — dropping a
set-operation down to one branch, clearing ORDER BY / HAVING / GROUP BY /
DISTINCT, removing individual top-level AND conjuncts, narrowing the select
list, isolating one side of a join, inlining parameters as literals — and
keeps any variant that *still fails* the differential runner.  The loop
restarts from the first successful reduction until a full pass produces no
smaller failing case (a greedy fixed point).

Soundness relies on the runner's consistent-error rule: a candidate that is
no longer a valid query makes the oracle *and* every path error out, which
the runner reports as ``ok`` — so broken candidates are rejected, never
mistaken for smaller reproductions of the disagreement.  The oracle's
engine (sqlite) is the more permissive of the two, so it takes validity
from the production binder before it runs anything; the one statement
both sides accept and SQL leaves undefined — a column shown beside an
aggregate with no GROUP BY naming it — is never offered as a candidate.

:func:`lift_literals` runs the parameter-inlining reduction backwards
(comparison literals become parameters): not a reduction, but the same AST
rebuild, used by the index-equivalence battery to make every access path
probe with execute-time bindings.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from ..errors import ReproError
from ..sql import ast, parse_statement, to_sql
from .generator import FuzzCase
from .runner import DifferentialRunner


def shrink(
    runner: DifferentialRunner, case: FuzzCase, max_steps: int = 200
) -> FuzzCase:
    """The smallest failing variant of ``case`` the greedy pass finds.

    ``case`` itself must fail under ``runner``; the return value is ``case``
    unchanged if no simplification preserves the failure.  ``max_steps``
    bounds the total number of candidate executions.
    """
    current = case
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in candidates(current):
            steps += 1
            if steps > max_steps:
                break
            if not runner.run_case(candidate).ok:
                current = candidate
                improved = True
                break
    return current


def candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Simplified variants of ``case``, most aggressive first."""
    try:
        statement = parse_statement(case.sql)
    except ReproError:
        return
    seen = {case.sql}

    def emit(variant, params: dict | None = None) -> Iterator[FuzzCase]:
        sql = to_sql(variant)
        if sql not in seen:
            seen.add(sql)
            yield case.with_sql(sql, params=params)

    if isinstance(statement, ast.SetOperation):
        for branch in statement.branches():
            yield from emit(branch)
        return

    if not isinstance(statement, ast.Select):
        return

    for variant in _select_reductions(statement):
        yield from emit(variant)

    if case.params:
        inlined = _inline_parameters(statement, case.params)
        if inlined is not None:
            yield from emit(inlined, params={})


def _select_reductions(select: ast.Select) -> Iterator[ast.Select]:
    """Single-step reductions of one SELECT block, big cuts first."""
    if select.where is not None:
        yield dataclasses.replace(select, where=None)
        conjuncts = _conjuncts(select.where)
        if len(conjuncts) > 1:
            for index in range(len(conjuncts)):
                kept = conjuncts[:index] + conjuncts[index + 1 :]
                yield dataclasses.replace(select, where=_conjoin(kept))

    if select.order_by:
        yield dataclasses.replace(select, order_by=())
    if select.having is not None:
        yield dataclasses.replace(select, having=None)
    if select.group_by:
        ungrouped = dataclasses.replace(select, group_by=(), having=None)
        if not _shows_a_bare_column_beside_an_aggregate(ungrouped):
            yield ungrouped
    if select.distinct:
        yield dataclasses.replace(select, distinct=False)
    if select.limit is not None or select.offset is not None:
        yield dataclasses.replace(select, limit=None, offset=None)

    if len(select.items) > 1:
        for index in range(len(select.items)):
            kept = select.items[:index] + select.items[index + 1 :]
            yield dataclasses.replace(select, items=kept)

    # A join collapses to each of its base-table leaves alone; column
    # references into the dropped side invalidate the candidate, which the
    # consistent-error rule then rejects.
    if len(select.sources) == 1 and isinstance(select.sources[0], ast.Join):
        for leaf in _join_leaves(select.sources[0]):
            yield dataclasses.replace(select, sources=(leaf,))


def _shows_a_bare_column_beside_an_aggregate(select: ast.Select) -> bool:
    """Whether the select list mixes aggregates with columns outside them.

    Ungrouped, such a statement has one result row and SQL does not say
    which input row the bare column is read from: this engine shows the
    first, sqlite the one holding a ``min``/``max`` or an arbitrary one.
    The two disagreeing there says nothing about the failure being shrunk.
    """

    def bare_column(expression: ast.Expression) -> bool:
        if isinstance(expression, ast.ColumnRef):
            return True
        if (
            isinstance(expression, ast.FunctionCall)
            and expression.name.lower() in ast.AGGREGATE_FUNCTIONS
        ):
            return False
        return any(map(bare_column, expression.child_expressions()))

    expressions = [item.expression for item in select.items]
    return any(map(bare_column, expressions)) and any(
        ast.expression_aggregates(expression, ast.AGGREGATE_FUNCTIONS)
        for expression in expressions
    )


def _conjuncts(expression: ast.Expression) -> list[ast.Expression]:
    if isinstance(expression, ast.BinaryOp) and expression.op.lower() == "and":
        return _conjuncts(expression.left) + _conjuncts(expression.right)
    return [expression]


def _conjoin(parts: list[ast.Expression]) -> ast.Expression | None:
    if not parts:
        return None
    combined = parts[0]
    for part in parts[1:]:
        combined = ast.BinaryOp("AND", combined, part)
    return combined


def _join_leaves(source: ast.TableSource) -> Iterator[ast.TableSource]:
    if isinstance(source, ast.Join):
        yield from _join_leaves(source.left)
        yield from _join_leaves(source.right)
    elif isinstance(source, (ast.TableName, ast.SubquerySource)):
        yield source


def _rebuild(value, substitute):
    """A copy of an AST with ``substitute(expression)`` applied top-down.

    ``substitute`` returns the replacement for an expression, or ``None``
    to keep it and descend.  Unchanged subtrees are shared, so the result
    *is* ``value`` when nothing was substituted.
    """
    if isinstance(value, ast.Expression):
        replacement = substitute(value)
        if replacement is not None:
            return replacement
    if isinstance(value, tuple):
        rebuilt = tuple(_rebuild(item, substitute) for item in value)
        return rebuilt if rebuilt != value else value
    if isinstance(value, (ast.Expression, ast.Select, ast.SetOperation)):
        changes = {}
        for field_info in dataclasses.fields(value):
            member = getattr(value, field_info.name)
            rebuilt = _rebuild(member, substitute)
            if rebuilt is not member:
                changes[field_info.name] = rebuilt
        return dataclasses.replace(value, **changes) if changes else value
    return value


def _inline_parameters(select: ast.Select, params: dict) -> ast.Select | None:
    """All parameter placeholders replaced with their literal values."""

    lowered = {str(k).lower(): v for k, v in params.items()}

    class _Missing(Exception):
        pass

    def substitute(expression):
        if not isinstance(expression, ast.Parameter):
            return None
        key = (expression.name or str(expression.index)).lower()
        if key not in lowered:
            raise _Missing()
        return ast.Literal(lowered[key])

    try:
        inlined = _rebuild(select, substitute)
    except _Missing:
        return None
    return inlined if inlined is not select else None


_COMPARISONS = frozenset({"=", "<", "<=", ">", ">="})


def lift_literals(case: FuzzCase) -> FuzzCase | None:
    """The inverse of inlining: ``column <op> literal`` becomes ``column
    <op> :liftN`` with the value moved into the case's parameters.

    Same statement, same answer — but every access path the optimizer
    picks for those comparisons now has to probe with a value it only
    learns at execution time.  ``None`` when the statement has no such
    comparison (or does not parse).
    """
    try:
        statement = parse_statement(case.sql)
    except ReproError:
        return None
    lifted: dict[str, object] = {}

    def substitute(expression):
        if not (
            isinstance(expression, ast.BinaryOp)
            and expression.op in _COMPARISONS
        ):
            return None
        sides = [expression.left, expression.right]
        for index, (value, other) in enumerate(zip(sides, reversed(sides))):
            if (
                isinstance(value, ast.Literal)
                and value.value is not None
                and isinstance(other, ast.ColumnRef)
            ):
                name = f"lift{len(lifted)}"
                lifted[name] = value.value
                sides[index] = ast.Parameter(name=name)
                return ast.BinaryOp(expression.op, *sides)
        return None

    rebuilt = _rebuild(statement, substitute)
    if not lifted:
        return None
    return case.with_sql(to_sql(rebuilt), params={**case.params, **lifted})
