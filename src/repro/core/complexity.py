"""Static complexity analysis (Section 5.6, Equation 1).

``cub(q)`` estimates the upper bound on the number of policy compliance
checks a rewritten query performs: for each base table accessed by a block,
the number of its tuples (n_i) times the number of action signatures derived
for it (j_i), summed recursively over the query's sub-queries.

The measured number of checks (Figure 6) is bounded by ``cub`` and usually
far below it: filters, joins and short-circuit evaluation cut the count —
``benchmarks/test_cub_bounds.py`` verifies both facts experimentally.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import Database
from ..sql import ast, parse_select
from .query_model import query_id as compute_query_id
from .signatures import QuerySignature


@dataclass(frozen=True)
class ComplexityEstimate:
    """The upper bound plus its per-term breakdown."""

    upper_bound: int
    terms: tuple[tuple[str, int, int], ...]
    """One ``(table, n_i, j_i)`` term per base table scanned by any block."""


def complexity_upper_bound(
    query: "str | ast.Select",
    signature: QuerySignature,
    database: Database,
) -> ComplexityEstimate:
    """Equation 1: Σ n_i · j_i for this block + Σ cub(sub-queries).

    Only table signatures whose binding is a *base-table scan* in the
    block's FROM clause contribute (derived-table bindings carry no policy
    column; their base tables are counted inside the sub-query block), which
    mirrors exactly what the rewriter enforces.
    """
    select = parse_select(query) if isinstance(query, str) else query
    terms: list[tuple[str, int, int]] = []
    _accumulate(select, signature, database, terms)
    total = sum(n * j for _, n, j in terms)
    return ComplexityEstimate(total, tuple(terms))


def _accumulate(
    select: ast.Select,
    signature: QuerySignature,
    database: Database,
    terms: list[tuple[str, int, int]],
) -> None:
    base_bindings = {
        source.binding.lower()
        for source in ast.select_sources(select)
        if isinstance(source, ast.TableName)
    }
    for table_signature in signature.tables:
        if table_signature.binding not in base_bindings:
            continue
        tuple_count = len(database.table(table_signature.table))
        terms.append(
            (table_signature.table, tuple_count, len(table_signature.actions))
        )

    for source in ast.select_sources(select):
        if isinstance(source, ast.SubquerySource):
            sub_signature = signature.subquery_signature(
                compute_query_id(source.select)
            )
            _accumulate(source.select, sub_signature, database, terms)
    for expression in ast.clause_expressions(select):
        for nested in ast.iter_subqueries(expression):
            sub_signature = signature.subquery_signature(compute_query_id(nested))
            _accumulate(nested, sub_signature, database, terms)
