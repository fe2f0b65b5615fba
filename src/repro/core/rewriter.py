"""Query rewriting enforcement (Section 5.5, Listing 2).

:func:`rewrite_query` implements ``rewriteQuery``: the WHERE clause of the
query — and, recursively, of every sub-query (``rwSubQueries``) — is
conjoined with one ``complieswith(b'<asm>', <binding>.policy)`` call per
action signature, where ``<asm>`` is the action-signature mask of Def. 14.

The original predicate is kept *first* in the conjunction: under the
engine's left-to-right short-circuit evaluation, tuples eliminated by the
query's own filters never pay a policy check, reproducing the
filter-amplification effect discussed with Figure 6.

A binding on the nullable side of an outer join gets its conjuncts in the
ON clause of the innermost such join instead: a policy filters its table,
not the join result, so a preserved row whose partners all fail their
policy is null-extended (the null-extended row discloses no tuple of the
nullable side) instead of being dropped by a NULL policy in WHERE.

Table signatures whose FROM-clause binding is a derived table get no
conjunct in the outer block — a derived table has no ``policy`` column; its
base tables are protected by the conjuncts added inside the rewritten
sub-query itself (DESIGN.md §5).
"""

from __future__ import annotations

import dataclasses
from typing import Protocol

from ..sql import ast
from .masks import MaskLayout
from .query_model import query_id as compute_query_id
from .signatures import QuerySignature, TableSignature
from .admin import POLICY_COLUMN, COMPLIES_WITH


class LayoutProvider(Protocol):
    """Where the rewriter gets per-table mask layouts (the admin module)."""

    def layout(self, table: str) -> MaskLayout:
        """Mask layout of a protected base table."""


def rewrite_query(
    select: ast.Select,
    signature: QuerySignature,
    layouts: LayoutProvider,
) -> ast.Select:
    """Rewrite a SELECT (and its sub-queries) to enforce the policies.

    ``signature`` must be the query signature derived for ``select`` with
    the same purpose the query runs under.
    """
    base_bindings = {
        source.binding.lower()
        for source in ast.select_sources(select)
        if isinstance(source, ast.TableName)
    }
    # Derived tables get none: they are enforced inside the sub-query.
    unplaced = {
        table.binding: _compliance_conjuncts(table, signature.purpose, layouts)
        for table in signature.tables
        if table.binding in base_bindings
    }
    rewritten_sources = tuple(
        _rewrite_source(source, signature, layouts, unplaced)
        for source in select.sources
    )

    where = (
        _rewrite_expression(select.where, signature, layouts)
        if select.where is not None
        else None
    )
    having = (
        _rewrite_expression(select.having, signature, layouts)
        if select.having is not None
        else None
    )
    items = tuple(
        dataclasses.replace(
            item,
            expression=_rewrite_expression(item.expression, signature, layouts),
        )
        for item in select.items
    )
    group_by = tuple(
        _rewrite_expression(expression, signature, layouts)
        for expression in select.group_by
    )
    order_by = tuple(
        dataclasses.replace(
            item,
            expression=_rewrite_expression(item.expression, signature, layouts),
        )
        for item in select.order_by
    )

    for conjuncts in unplaced.values():
        for conjunct in conjuncts:
            where = ast.conjoin(where, conjunct)

    return dataclasses.replace(
        select,
        items=items,
        sources=rewritten_sources,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,
    )


def _compliance_conjuncts(
    table_signature: TableSignature,
    purpose: str,
    layouts: LayoutProvider,
) -> list[ast.Expression]:
    """One ``complieswith`` call per action signature of the table."""
    layout = layouts.layout(table_signature.table)
    conjuncts = []
    for action in table_signature.actions:
        mask = layout.signature_mask(action.columns, action.action_type, purpose)
        conjuncts.append(
            ast.FunctionCall(
                COMPLIES_WITH,
                (
                    ast.BitStringLiteral(mask.bits()),
                    ast.ColumnRef(POLICY_COLUMN, table=table_signature.binding),
                ),
            )
        )
    return conjuncts


def _rewrite_source(
    source: ast.TableSource,
    signature: QuerySignature,
    layouts: LayoutProvider,
    unplaced: "dict[str, list[ast.Expression]]",
) -> ast.TableSource:
    """Rewrite a FROM item; an outer join takes the conjuncts of the
    bindings on its nullable side that no inner outer join took, out of
    ``unplaced``, into its ON clause."""
    if isinstance(source, ast.SubquerySource):
        sub_signature = signature.subquery_signature(compute_query_id(source.select))
        return dataclasses.replace(
            source, select=rewrite_query(source.select, sub_signature, layouts)
        )
    if not isinstance(source, ast.Join):
        return source
    left = _rewrite_source(source.left, signature, layouts, unplaced)
    right = _rewrite_source(source.right, signature, layouts, unplaced)
    condition = source.condition
    if condition is not None:
        condition = _rewrite_expression(condition, signature, layouts)
    nullable = {"LEFT": source.right, "RIGHT": source.left}.get(source.kind)
    if nullable is not None:
        for leaf in ast.source_leaves(nullable):
            for conjunct in unplaced.pop(leaf.binding.lower(), ()):
                condition = ast.conjoin(condition, conjunct)
    return dataclasses.replace(source, left=left, right=right, condition=condition)


def _rewrite_expression(
    expression: ast.Expression,
    signature: QuerySignature,
    layouts: LayoutProvider,
) -> ast.Expression:
    """Rebuild an expression, rewriting nested sub-queries (rwSubQueries)."""

    def rewrite_sub(select: ast.Select) -> ast.Select:
        sub_signature = signature.subquery_signature(compute_query_id(select))
        return rewrite_query(select, sub_signature, layouts)

    if isinstance(expression, ast.InSubquery):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
            subquery=rewrite_sub(expression.subquery),
        )
    if isinstance(expression, ast.Exists):
        return dataclasses.replace(expression, subquery=rewrite_sub(expression.subquery))
    if isinstance(expression, ast.ScalarSubquery):
        return dataclasses.replace(expression, subquery=rewrite_sub(expression.subquery))
    if isinstance(expression, ast.UnaryOp):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
        )
    if isinstance(expression, ast.BinaryOp):
        return dataclasses.replace(
            expression,
            left=_rewrite_expression(expression.left, signature, layouts),
            right=_rewrite_expression(expression.right, signature, layouts),
        )
    if isinstance(expression, ast.FunctionCall):
        return dataclasses.replace(
            expression,
            args=tuple(
                _rewrite_expression(arg, signature, layouts)
                for arg in expression.args
            ),
        )
    if isinstance(expression, ast.Cast):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
        )
    if isinstance(expression, ast.InList):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
            items=tuple(
                _rewrite_expression(item, signature, layouts)
                for item in expression.items
            ),
        )
    if isinstance(expression, ast.Between):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
            low=_rewrite_expression(expression.low, signature, layouts),
            high=_rewrite_expression(expression.high, signature, layouts),
        )
    if isinstance(expression, ast.Like):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
            pattern=_rewrite_expression(expression.pattern, signature, layouts),
        )
    if isinstance(expression, ast.IsNull):
        return dataclasses.replace(
            expression,
            operand=_rewrite_expression(expression.operand, signature, layouts),
        )
    if isinstance(expression, ast.CaseWhen):
        return dataclasses.replace(
            expression,
            operand=(
                _rewrite_expression(expression.operand, signature, layouts)
                if expression.operand is not None
                else None
            ),
            whens=tuple(
                (
                    _rewrite_expression(condition, signature, layouts),
                    _rewrite_expression(result, signature, layouts),
                )
                for condition, result in expression.whens
            ),
            else_result=(
                _rewrite_expression(expression.else_result, signature, layouts)
                if expression.else_result is not None
                else None
            ),
        )
    # Leaves: literals, column refs, stars.
    return expression
