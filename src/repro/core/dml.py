"""Enforcement for data-modification statements.

The paper's model regulates SELECT queries, but UPDATE/DELETE *read* data
too: their WHERE predicates filter on column values, and UPDATE's SET
expressions derive new values from stored ones.  An attacker who cannot
``SELECT salary`` could otherwise learn it through
``UPDATE t SET flag=1 WHERE salary > x``.  This module closes that channel
by applying the same signature-derivation + rewriting machinery to the
read-side of DML:

* ``UPDATE t SET c = e WHERE p``  — references in ``p`` are indirect
  accesses, references in each ``e`` are direct accesses (they flow into
  stored values); the statement's WHERE is conjoined with the corresponding
  ``complieswith`` checks, so only policy-compliant tuples are updated
  (PostgreSQL row-level security's USING semantics).
* ``DELETE FROM t WHERE p`` — references in ``p`` are indirect accesses.
* ``INSERT ... SELECT`` — the source SELECT is rewritten exactly like a
  query; plain ``INSERT ... VALUES`` reads nothing and passes through.

The derivation reuses the SELECT pipeline by building a *synthetic* SELECT
whose select list holds the SET expressions and whose WHERE is the
statement's predicate (DESIGN.md §6).
"""

from __future__ import annotations

import dataclasses

from ..errors import AccessControlError
from ..sql import ast
from .actions import ActionType, JointAccess
from .admin import AccessControlManager, COMPLIES_WITH, POLICY_COLUMN
from .rewriter import rewrite_query
from .signatures import SignatureDeriver


def synthetic_select(statement: ast.Update | ast.Delete) -> ast.Select:
    """The SELECT whose reads are equivalent to the DML statement's."""
    if isinstance(statement, ast.Update):
        items = tuple(
            ast.SelectItem(expression) for _, expression in statement.assignments
        )
        if not items:
            items = (ast.SelectItem(ast.Literal(1)),)
    else:
        items = (ast.SelectItem(ast.Literal(1)),)
    return ast.Select(
        items=items,
        sources=(ast.TableName(statement.table),),
        where=statement.where,
    )


def _touch_conjunct(
    table: str, purpose: str, admin: AccessControlManager
) -> ast.Expression:
    """The *touch* check appended to every UPDATE/DELETE.

    Even a statement that reads nothing (``UPDATE t SET c = 1``) modifies
    specific tuples; it may only touch tuples whose policy grants the
    statement's purpose for *some* indirect access.  Encoded as an action
    signature with an empty column set — ⟨∅, ⟨i, ⊥, ⊥, ∅⟩⟩ — whose mask sets
    only the purpose and indirection bits, so any indirect grant for the
    purpose (or a pass-all rule) satisfies it while a pass-none policy or a
    NULL policy column blocks the write.
    """
    layout = admin.layout(table)
    mask = layout.signature_mask(
        (), ActionType.indirect(JointAccess.none()), purpose
    )
    return ast.FunctionCall(
        COMPLIES_WITH,
        (
            ast.BitStringLiteral(mask.bits()),
            ast.ColumnRef(POLICY_COLUMN, table=table),
        ),
    )


def _forbid_policy_column_writes(columns, table: str) -> None:
    if any(name.lower() == POLICY_COLUMN for name in columns):
        raise AccessControlError(
            f"the {POLICY_COLUMN!r} column of {table!r} can only be written "
            "through the administration API"
        )


def rewrite_update(
    statement: ast.Update,
    purpose: str,
    deriver: SignatureDeriver,
    admin: AccessControlManager,
) -> ast.Update:
    """Conjoin compliance + touch checks onto an UPDATE's WHERE clause."""
    _forbid_policy_column_writes(
        (name for name, _ in statement.assignments), statement.table
    )
    synthetic = synthetic_select(statement)
    signature = deriver.derive(synthetic, purpose)
    rewritten_select = rewrite_query(synthetic, signature, admin)
    where = ast.conjoin(
        rewritten_select.where, _touch_conjunct(statement.table, purpose, admin)
    )
    return dataclasses.replace(statement, where=where)


def rewrite_delete(
    statement: ast.Delete,
    purpose: str,
    deriver: SignatureDeriver,
    admin: AccessControlManager,
) -> ast.Delete:
    """Conjoin compliance + touch checks onto a DELETE's WHERE clause."""
    synthetic = synthetic_select(statement)
    signature = deriver.derive(synthetic, purpose)
    rewritten_select = rewrite_query(synthetic, signature, admin)
    where = ast.conjoin(
        rewritten_select.where, _touch_conjunct(statement.table, purpose, admin)
    )
    return dataclasses.replace(statement, where=where)


def rewrite_insert(
    statement: ast.Insert,
    purpose: str,
    deriver: SignatureDeriver,
    admin: AccessControlManager,
) -> ast.Insert:
    """Rewrite the source SELECT of ``INSERT ... SELECT``; VALUES pass.

    An INSERT without an explicit column list targets the table's *logical*
    columns — the hidden ``policy`` column stays NULL (the new tuple is
    invisible until an administrator or the owner attaches a policy, §5.3).
    """
    _forbid_policy_column_writes(statement.columns, statement.table)
    columns = statement.columns
    if not columns and admin.has_table(statement.table):
        columns = admin.table_columns(statement.table)
    rewritten_select = statement.select
    if rewritten_select is not None:
        signature = deriver.derive(rewritten_select, purpose)
        rewritten_select = rewrite_query(rewritten_select, signature, admin)
    return dataclasses.replace(
        statement, columns=columns, select=rewritten_select
    )


def rewrite_statement(
    statement: ast.Statement,
    purpose: str,
    deriver: SignatureDeriver,
    admin: AccessControlManager,
) -> ast.Statement:
    """Dispatch to the per-statement rewriters (SELECT handled upstream)."""
    if isinstance(statement, ast.Update):
        return rewrite_update(statement, purpose, deriver, admin)
    if isinstance(statement, ast.Delete):
        return rewrite_delete(statement, purpose, deriver, admin)
    if isinstance(statement, ast.Insert):
        return rewrite_insert(statement, purpose, deriver, admin)
    return statement
