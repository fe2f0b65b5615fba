"""Action, table and query signatures (Defs. 3-4) — phase 3 of derivation.

Phase 3 groups the completed info tuples of a block by FROM-clause binding
and by action type: occurrences sharing the same ⟨Ia, Ms, Ag, Ja⟩ merge
their columns into one :class:`ActionSignature` (Figure 3 keeps ``user_id``'s
direct and indirect occurrences separate because their action types differ).

Subqueries are analyzed recursively: every nested SELECT (derived tables,
IN/EXISTS/scalar subqueries) gets its own :class:`QuerySignature`, collected
in *Qss* and indexed by query id — which is how Listing 2's ``rwSubQueries``
finds the signature of each sub-query source it rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SignatureError
from ..sql import ast, parse_select
from .actions import ActionType
from .info_tuples import (
    BlockResolver,
    Categorizer,
    InfoTuple,
    SchemaProvider,
    derive_info_tuples,
)
from .query_model import QueryModel, query_id as compute_query_id


@dataclass(frozen=True)
class ActionSignature:
    """Def. 3: a set of columns plus the action type performed on them."""

    columns: frozenset[str]
    action_type: ActionType


@dataclass(frozen=True)
class TableSignature:
    """Def. 4: the action signatures referring to one accessed table.

    ``binding`` is the FROM-clause name (alias or table name) used by the
    rewriter to address the right ``<binding>.policy`` column; ``table`` is
    the underlying base table whose policies apply.
    """

    binding: str
    table: str
    actions: tuple[ActionSignature, ...]


@dataclass(frozen=True)
class QuerySignature:
    """The query signature *Qs* = ⟨Ap, Tss, Qss⟩ of Def. 4."""

    query_id: str
    purpose: str
    tables: tuple[TableSignature, ...]
    subqueries: tuple["QuerySignature", ...] = field(default_factory=tuple)

    def table_signature(self, binding: str) -> TableSignature | None:
        """The table signature for a FROM-clause binding, if any."""
        key = binding.lower()
        for signature in self.tables:
            if signature.binding == key:
                return signature
        return None

    def subquery_signature(self, sub_id: str) -> "QuerySignature":
        """Look up a nested signature by query id (Listing 2's select)."""
        for signature in self.subqueries:
            if signature.query_id == sub_id:
                return signature
        raise SignatureError(f"no sub-query signature with id {sub_id!r}")

    def all_signatures(self) -> list["QuerySignature"]:
        """This signature plus all nested ones, depth-first."""
        result = [self]
        for subquery in self.subqueries:
            result.extend(subquery.all_signatures())
        return result


class SignatureDeriver:
    """Derives query signatures from SQL (the three-phase process, §5.2)."""

    def __init__(self, schema: SchemaProvider, categorizer: Categorizer):
        self.schema = schema
        self.categorizer = categorizer

    def derive(self, query: "str | ast.Select | QueryModel", purpose: str) -> QuerySignature:
        """Derive the full signature tree of a query for an access purpose."""
        if isinstance(query, str):
            select = parse_select(query)
        elif isinstance(query, QueryModel):
            select = query.select_ast
        else:
            select = query
        return self._derive_block(select, purpose, parent=None)

    def _derive_block(
        self,
        select: ast.Select,
        purpose: str,
        parent: BlockResolver | None,
    ) -> QuerySignature:
        block_id = compute_query_id(select)
        tuples, resolver = derive_info_tuples(
            select, block_id, purpose, self.schema, self.categorizer, parent
        )
        tables = _group_into_table_signatures(tuples)

        subqueries: list[QuerySignature] = []
        for source in ast.select_sources(select):
            if isinstance(source, ast.SubquerySource):
                subqueries.append(
                    self._derive_block(source.select, purpose, parent=None)
                )
        for expression in ast.clause_expressions(select):
            for nested in ast.iter_subqueries(expression):
                subqueries.append(
                    self._derive_block(nested, purpose, parent=resolver)
                )

        return QuerySignature(
            query_id=block_id,
            purpose=purpose,
            tables=tables,
            subqueries=tuple(subqueries),
        )


def _group_into_table_signatures(tuples: list[InfoTuple]) -> tuple[TableSignature, ...]:
    """Phase 3 grouping: binding → action type → merged column sets."""
    by_binding: dict[str, dict] = {}
    binding_order: list[str] = []
    for info in tuples:
        if info.binding not in by_binding:
            by_binding[info.binding] = {"table": info.source, "actions": {}}
            binding_order.append(info.binding)
        action_type = ActionType(
            info.indirection, info.multiplicity, info.aggregation, info.joint_access
        )
        actions = by_binding[info.binding]["actions"]
        if action_type not in actions:
            actions[action_type] = set()
        actions[action_type].add(info.column)

    signatures = []
    for binding in binding_order:
        entry = by_binding[binding]
        actions = tuple(
            ActionSignature(frozenset(columns), action_type)
            for action_type, columns in entry["actions"].items()
        )
        signatures.append(TableSignature(binding, entry["table"], actions))
    return tuple(signatures)
