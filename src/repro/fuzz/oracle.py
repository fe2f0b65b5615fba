"""An enforcement oracle independent of the query rewriter.

:class:`EnforcementOracle` computes the result an enforced query *should*
return without ever invoking :func:`repro.core.rewriter.rewrite_query` or
the engine-registered ``complieswith`` UDF.  Instead it exploits the
semantic identity the paper's rewriting rests on: conjoining
``complieswith(asm, t.policy)`` to a block's WHERE clause is (for inner
joins) equivalent to running the *unmodified* block over a copy of the
table that was pre-filtered to the policy-compliant rows.  The oracle:

1. derives the query signature with the production
   :class:`~repro.core.signatures.SignatureDeriver` (shared by construction
   — signatures are the *specification* of which accesses occur, and both
   implementations must agree on them);
2. for every base-table binding of every block, computes the action
   signature masks (Def. 14) and materializes a shadow copy of the table
   holding exactly the rows whose policy mask satisfies **all** of them
   under the direct Python :func:`~repro.core.masks.complies_with` check —
   mirroring the strict UDF, a NULL policy mask never complies;
3. rebuilds the statement with each base-table reference redirected to its
   shadow copy (aliased back to the original binding so column references
   resolve unchanged), recursing into subqueries exactly where Listing 2's
   ``rwSubQueries`` does — correlated references attributed to an *outer*
   binding get no filter in the inner block, matching the rewriter;
4. loads the shadow copies into an in-memory ``sqlite3`` database — plain
   Python values, policy masks as bit text, ``LIKE`` made case-sensitive —
   and runs the printed statement there.

The rows therefore come from an engine that shares no operator, no
expression evaluator, no planner and no optimizer with the system under
test: a defect in any of those shows up as a disagreement instead of being
reproduced on both sides.  What oracle and implementation still share is
signature derivation, :mod:`repro.core.masks` and the SQL parser, printer
and binder; the rewriter, the plan cache, the prepared-statement machinery
and the wire protocol contribute nothing to the expected result either.

sqlite is the more permissive of the two (select-list aliases in WHERE,
mixed-type comparisons), so what counts as a *valid* statement stays the
production parser's and binder's call: the statement is planned — never
executed — on the production database before sqlite sees it, and whatever
that raises is the oracle's answer.  Anything sqlite itself refuses comes
back as a :class:`~repro.errors.ReproError` too, so the runner's
consistent-error rule covers both.
"""

from __future__ import annotations

import dataclasses
import sqlite3

from ..core.admin import AccessControlManager, POLICY_COLUMN
from ..core.masks import complies_with
from ..core.query_model import query_id as compute_query_id
from ..core.signatures import QuerySignature, SignatureDeriver, TableSignature
from ..engine.database import bind_parameters
from ..engine.result import ResultSet
from ..engine.types import BitString
from ..errors import ExecutionError
from ..sql import ast, parse_statement, to_sql


class EnforcementOracle:
    """Computes expected enforced results by policy pre-filtering."""

    def __init__(self, admin: AccessControlManager):
        self.admin = admin
        self.deriver = SignatureDeriver(admin, admin)

    def expected(
        self,
        query: "str | ast.Select | ast.SetOperation",
        purpose: str,
        params=None,
    ) -> ResultSet:
        """The result the enforced execution of ``query`` must produce."""
        if isinstance(query, str):
            statement = parse_statement(query)
        else:
            statement = query
        if not isinstance(statement, (ast.Select, ast.SetOperation)):
            raise TypeError(
                f"oracle expects a SELECT statement, got {type(statement).__name__}"
            )
        self.admin.purposes.get(purpose)  # same validation as the monitor
        database = self.admin.database
        # Shadows are aliased back to the bindings they replace, so the
        # original statement binds exactly as the transformed one would.
        bound = database.prepare(statement)
        values = bind_parameters(params, bound.parameters)
        #: ⟨table, mask set⟩ → (shadow name, schema, pre-filtered rows)
        self._shadows: dict[tuple[str, tuple[str, ...]], tuple] = {}
        transformed = self._transform_statement(statement, purpose)
        tables = [
            (name, database.table(name).schema, database.table(name).rows)
            for name in self.admin.target_tables()
        ]
        connection = sqlite3.connect(":memory:")
        try:
            connection.execute("pragma case_sensitive_like = on")
            for name, schema, rows in [*tables, *self._shadows.values()]:
                self._load(connection, name, schema, rows)
            rows = connection.execute(
                to_sql(transformed), {str(key): v for key, v in values.items()}
            ).fetchall()
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite reference: {exc}") from exc
        finally:
            connection.close()
        return ResultSet(bound.columns, rows)

    # -- shadow tables ---------------------------------------------------------

    @staticmethod
    def _load(connection: sqlite3.Connection, name: str, schema, rows) -> None:
        """One untyped sqlite table: no column affinity, so every value keeps
        the storage class of its Python type; policy masks go in as bit text
        (what :func:`~.runner.normalize_value` compares them as)."""
        columns = [f'"{column.name}"' for column in schema.columns]
        connection.execute(f'create table "{name}" ({", ".join(columns)})')
        connection.executemany(
            f'insert into "{name}" values ({", ".join("?" * len(columns))})',
            (
                [v.bits() if isinstance(v, BitString) else v for v in row]
                for row in rows
            ),
        )

    def _shadow_for(self, table_signature: TableSignature, purpose: str) -> str:
        """The pre-filtered copy for one ⟨table, mask set⟩ combination."""
        layout = self.admin.layout(table_signature.table)
        masks = [
            layout.signature_mask(action.columns, action.action_type, purpose)
            for action in table_signature.actions
        ]
        key = (table_signature.table, tuple(sorted(m.bits() for m in masks)))
        if key not in self._shadows:
            source = self.admin.database.table(table_signature.table)
            policy_index = source.schema.column_index(POLICY_COLUMN)
            self._shadows[key] = (
                f"__oracle_{table_signature.table}_{len(self._shadows)}",
                source.schema,
                [
                    row
                    for row in source.rows
                    if self._admits(row[policy_index], masks)
                ],
            )
        return self._shadows[key][0]

    @staticmethod
    def _admits(policy_mask, masks) -> bool:
        """Direct Def. 15 evaluation; NULL masks never comply (strict UDF)."""
        if not masks:
            return True
        if policy_mask is None:
            return False
        return all(complies_with(mask, policy_mask) for mask in masks)

    # -- statement transformation ----------------------------------------------

    def _transform_statement(
        self,
        statement: "ast.Select | ast.SetOperation",
        purpose: str,
    ) -> "ast.Select | ast.SetOperation":
        """Per-branch transformation: each SELECT gets its own signature,
        mirroring the monitor's branch-by-branch set-operation enforcement."""
        if isinstance(statement, ast.SetOperation):
            return dataclasses.replace(
                statement,
                left=self._transform_statement(statement.left, purpose),
                right=self._transform_statement(statement.right, purpose),
            )
        signature = self.deriver.derive(statement, purpose)
        return self._transform_select(statement, signature)

    def _transform_select(
        self, select: ast.Select, signature: QuerySignature
    ) -> ast.Select:
        sources = tuple(
            self._transform_source(source, signature)
            for source in select.sources
        )
        items = tuple(
            dataclasses.replace(
                item,
                expression=self._transform_expression(
                    item.expression, signature
                ),
            )
            for item in select.items
        )
        where = (
            self._transform_expression(select.where, signature)
            if select.where is not None
            else None
        )
        group_by = tuple(
            self._transform_expression(expression, signature)
            for expression in select.group_by
        )
        having = (
            self._transform_expression(select.having, signature)
            if select.having is not None
            else None
        )
        order_by = tuple(
            dataclasses.replace(
                item,
                expression=self._transform_expression(
                    item.expression, signature
                ),
            )
            for item in select.order_by
        )
        return dataclasses.replace(
            select,
            items=items,
            sources=sources,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
        )

    def _transform_source(
        self,
        source: ast.TableSource,
        signature: QuerySignature,
    ) -> ast.TableSource:
        if isinstance(source, ast.TableName):
            table_signature = signature.table_signature(source.binding)
            if table_signature is None or not table_signature.actions:
                return source  # unreferenced source: no conjuncts, no filter
            shadow = self._shadow_for(table_signature, signature.purpose)
            # Alias the shadow back to the original binding so every
            # qualified column reference resolves exactly as before.
            return ast.TableName(shadow, alias=source.binding)
        if isinstance(source, ast.SubquerySource):
            # Query id computed on the *original* sub-select, as the
            # rewriter does, before any shadow substitution changes it.
            sub_signature = signature.subquery_signature(
                compute_query_id(source.select)
            )
            return dataclasses.replace(
                source,
                select=self._transform_select(
                    source.select, sub_signature
                ),
            )
        if isinstance(source, ast.Join):
            return dataclasses.replace(
                source,
                left=self._transform_source(source.left, signature),
                right=self._transform_source(source.right, signature),
                condition=(
                    self._transform_expression(
                        source.condition, signature
                    )
                    if source.condition is not None
                    else None
                ),
            )
        return source

    def _transform_expression(
        self,
        expression: ast.Expression,
        signature: QuerySignature,
    ) -> ast.Expression:
        """Rebuild an expression, redirecting nested subqueries.

        The three subquery-bearing node types are handled explicitly (they
        need the sub-signature lookup); everything else is rebuilt
        generically field by field, so new expression node types are
        covered without touching the oracle.
        """

        def sub(select: ast.Select) -> ast.Select:
            sub_signature = signature.subquery_signature(compute_query_id(select))
            return self._transform_select(select, sub_signature)

        if isinstance(expression, ast.InSubquery):
            return dataclasses.replace(
                expression,
                operand=self._transform_expression(
                    expression.operand, signature
                ),
                subquery=sub(expression.subquery),
            )
        if isinstance(expression, ast.Exists):
            return dataclasses.replace(expression, subquery=sub(expression.subquery))
        if isinstance(expression, ast.ScalarSubquery):
            return dataclasses.replace(expression, subquery=sub(expression.subquery))

        changes = {}
        for field_info in dataclasses.fields(expression):
            value = getattr(expression, field_info.name)
            rebuilt = self._transform_value(value, signature)
            if rebuilt is not value:
                changes[field_info.name] = rebuilt
        return dataclasses.replace(expression, **changes) if changes else expression

    def _transform_value(self, value, signature):
        if isinstance(value, ast.Expression):
            return self._transform_expression(value, signature)
        if isinstance(value, tuple):
            rebuilt = tuple(
                self._transform_value(item, signature) for item in value
            )
            return rebuilt if rebuilt != value else value
        return value
