"""Hash partitioning and query routing for the sharded deployment.

Two decisions live here:

* **Row placement** — :func:`shard_of` maps a row to one shard by hashing
  its partition key (the table's primary-key columns when declared, the
  full row otherwise, always excluding the policy column whose cells are
  rewritten by policy writes).  The hash is ``zlib.crc32`` over a
  canonical ``repr``, *not* Python's salted ``hash()`` — placement must
  not change between interpreter launches.

* **Query routing** — :func:`classify` decides how a statement executes:

  ``SCATTER_ROWS``
      A plain single-table SELECT (no subqueries, DISTINCT, GROUP BY,
      aggregates, HAVING, ORDER BY or LIMIT/OFFSET).  Selection and
      projection — policy guards included — are row-local, so the shard
      results concatenate into exactly the single-node result.

  ``SCATTER_AGG``
      A single-table aggregate whose select list is only shardable
      aggregate calls and GROUP BY keys.  COUNT/MIN/MAX decompose over any
      subquery-free argument; SUM/AVG only over *integer* columns — float
      addition is non-associative, and a partitioned sum must equal the
      single-node left-to-right accumulation bit for bit, which integer
      arithmetic guarantees and IEEE doubles do not.

  ``SINGLE``
      A ``SCATTER_ROWS`` statement whose WHERE is a conjunction holding
      ``column = literal-or-parameter`` for every column of a declared
      primary key.  Every row it can return has that key, and placement is
      a function of the key, so one shard holds them all:
      :func:`single_shard` computes it from the bound values of each
      execution.  Placement hashes ``repr``, so a bound value that *equals*
      the stored key without being spelled like it (``4.0`` against an
      INTEGER key) would hash elsewhere: unless every value's Python type is
      exactly the column's stored type the execution falls back to the full
      scatter, which answers (or raises) as the single node does.

  ``LOCAL``
      Everything else (joins, subqueries, set operations, ORDER BY/LIMIT,
      DISTINCT, HAVING, float SUM/AVG, ...) runs on the coordinator's full
      replica — and so does every statement over a *coordinator-local*
      table: one that is not in ``partitioned`` (the tables of the recipe
      world the shards were built from) because it was created on the
      replica afterwards, like the audit trail's ``al``.  Correct first; the
      scatter routes are the hot paths the workload generator actually
      emits.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass

from ..engine import Database
from ..engine.database import bind_parameters
from ..engine.plan import flatten_conjuncts
from ..engine.table import Table
from ..engine.types import SqlType
from ..sql import ast

#: Aggregates whose partials merge exactly for any subquery-free argument.
_ORDER_FREE_AGGREGATES = frozenset({"count", "min", "max"})

#: Aggregates whose partials merge exactly only over integer arguments.
_SUM_LIKE_AGGREGATES = frozenset({"sum", "avg"})

#: Key column type → the one Python type its stored values have.  DOUBLE is
#: left out on purpose: ``-0.0 = 0.0`` holds but the two hash apart.
_STORED_TYPE = {SqlType.INTEGER: int, SqlType.TEXT: str, SqlType.BOOLEAN: bool}


class Route(enum.Enum):
    """How a statement executes in the sharded deployment."""

    SCATTER_ROWS = "scatter_rows"
    SCATTER_AGG = "scatter_agg"
    SINGLE = "single"
    LOCAL = "local"


@dataclass(frozen=True)
class RoutePlan:
    """The routing decision for one statement."""

    route: Route
    table: str | None = None
    reason: str = ""
    #: ``SINGLE`` only: per primary-key column, in key order, the stored
    #: Python type and the literal or parameter the WHERE equates it with.
    key: tuple = ()


# -- row placement -----------------------------------------------------------------


def partition_key_indexes(table: Table, policy_column: str) -> tuple[int, ...]:
    """Column indexes hashed for row placement.

    Primary-key columns when the schema declares any; otherwise every
    column except the policy column (its cells change under policy writes,
    and placement must survive them).
    """
    schema = table.schema
    primary = tuple(
        index
        for index, column in enumerate(schema.columns)
        if column.primary_key
    )
    if primary:
        return primary
    policy = policy_column.lower()
    return tuple(
        index
        for index, column in enumerate(schema.columns)
        if column.name.lower() != policy
    )


def shard_of(row: tuple, key_indexes: tuple[int, ...], shard_count: int) -> int:
    """The shard a row lives on (deterministic across processes)."""
    key = repr(tuple(row[index] for index in key_indexes))
    return zlib.crc32(key.encode("utf-8")) % shard_count


def single_shard(key: tuple, params, shard_count: int) -> int | None:
    """The shard a ``SINGLE`` execution goes to; ``None`` → scatter instead.

    ``key`` is :attr:`RoutePlan.key`; ``params`` the execution's bindings.
    """
    bound = bind_parameters(params, ())
    values = []
    for stored_type, operand in key:
        if isinstance(operand, ast.Parameter):
            value = bound.get(operand.key)
        else:
            value = operand.value
        if type(value) is not stored_type:
            return None
        values.append(value)
    return shard_of(tuple(values), tuple(range(len(values))), shard_count)


def split_rows(
    table: Table, shard_count: int, policy_column: str
) -> list[list[tuple]]:
    """Split a table's rows into per-shard lists, preserving order."""
    key_indexes = partition_key_indexes(table, policy_column)
    partitions: list[list[tuple]] = [[] for _ in range(shard_count)]
    for row in table.rows:
        partitions[shard_of(row, key_indexes, shard_count)].append(row)
    return partitions


# -- query routing -----------------------------------------------------------------


def _has_subquery(select: ast.Select) -> bool:
    for source in ast.select_sources(select):
        if not isinstance(source, ast.TableName):
            return True
    for expression in ast.clause_expressions(select):
        for _ in ast.iter_subqueries(expression):
            return True
    return False


def _sum_like_shardable(
    call: ast.FunctionCall, table: Table, binding: str
) -> bool:
    """SUM/AVG partials are exact only over integer column references."""
    if len(call.args) != 1 or not isinstance(call.args[0], ast.ColumnRef):
        return False
    ref = call.args[0]
    if ref.table is not None and ref.table.lower() != binding.lower():
        return False
    schema = table.schema
    if ref.name.lower() not in schema:
        return False
    return schema.column(ref.name).sql_type in (SqlType.INTEGER, SqlType.BOOLEAN)


def _aggregate_shardable(
    call: ast.FunctionCall, table: Table, binding: str
) -> bool:
    name = call.name.lower()
    if call.distinct:
        return False  # DISTINCT aggregates need a cross-shard value set
    if name in _ORDER_FREE_AGGREGATES:
        if len(call.args) == 1 and isinstance(call.args[0], ast.Star):
            return name == "count"
        return len(call.args) == 1
    if name in _SUM_LIKE_AGGREGATES:
        return _sum_like_shardable(call, table, binding)
    return False


def _key_recipe(select: ast.Select, table: Table, binding: str) -> tuple:
    """:attr:`RoutePlan.key` for a plain select, ``()`` when it has none."""
    schema = table.schema
    primary = [column for column in schema.columns if column.primary_key]
    if not primary or select.where is None:
        return ()
    equated: dict[str, ast.Expression] = {}
    for conjunct in flatten_conjuncts(select.where):
        if not isinstance(conjunct, ast.BinaryOp) or conjunct.op != "=":
            continue
        for ref, operand in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(ref, ast.ColumnRef)
                and (ref.table is None or ref.table.lower() == binding.lower())
                and isinstance(operand, (ast.Literal, ast.Parameter))
            ):
                equated.setdefault(ref.name.lower(), operand)
    recipe = []
    for column in primary:
        stored_type = _STORED_TYPE.get(column.sql_type)
        operand = equated.get(column.name.lower())
        if stored_type is None or operand is None:
            return ()
        recipe.append((stored_type, operand))
    return tuple(recipe)


def classify(
    statement: ast.Statement,
    database: Database,
    partitioned: "frozenset[str] | None" = None,
) -> RoutePlan:
    """Decide the route for one statement (see module docstring).

    ``partitioned`` names (lower-cased) the tables the shards hold; ``None``
    means every table of ``database``.
    """
    if not isinstance(statement, ast.Select):
        return RoutePlan(Route.LOCAL, reason="not a plain SELECT")
    select = statement
    sources = list(ast.select_sources(select))
    if len(sources) != 1 or not isinstance(sources[0], ast.TableName):
        return RoutePlan(Route.LOCAL, reason="joins/derived tables")
    source = sources[0]
    if not database.has_table(source.name):
        return RoutePlan(Route.LOCAL, reason="unknown table")
    if partitioned is not None and source.name.lower() not in partitioned:
        return RoutePlan(Route.LOCAL, reason="coordinator-local table")
    if _has_subquery(select):
        return RoutePlan(Route.LOCAL, reason="subquery")
    if (
        select.distinct
        or select.order_by
        or select.limit is not None
        or select.offset is not None
        or select.having is not None
    ):
        return RoutePlan(Route.LOCAL, reason="order-sensitive clause")

    table = database.table(source.name)
    binding = source.binding
    item_aggregates = [
        ast.expression_aggregates(item.expression, ast.AGGREGATE_FUNCTIONS)
        for item in select.items
    ]
    where_aggregates = (
        ast.expression_aggregates(select.where, ast.AGGREGATE_FUNCTIONS)
        if select.where is not None
        else []
    )
    group_aggregates = [
        agg
        for expr in select.group_by
        for agg in ast.expression_aggregates(expr, ast.AGGREGATE_FUNCTIONS)
    ]
    if where_aggregates or group_aggregates:
        return RoutePlan(Route.LOCAL, reason="aggregate outside select list")

    if not any(item_aggregates) and not select.group_by:
        key = _key_recipe(select, table, binding)
        if key:
            return RoutePlan(Route.SINGLE, table=source.name, key=key)
        return RoutePlan(Route.SCATTER_ROWS, table=source.name)

    # Aggregate shape: every select item is either exactly one shardable
    # aggregate call or (structurally) one of the GROUP BY keys.
    for item, aggregates in zip(select.items, item_aggregates):
        expression = item.expression
        if isinstance(expression, ast.FunctionCall) and (
            expression.name.lower() in ast.AGGREGATE_FUNCTIONS
        ):
            if not _aggregate_shardable(expression, table, binding):
                return RoutePlan(
                    Route.LOCAL, reason=f"non-shardable {expression.name}()"
                )
            continue
        if aggregates:
            return RoutePlan(Route.LOCAL, reason="aggregate inside expression")
        if expression not in select.group_by:
            return RoutePlan(Route.LOCAL, reason="item is not a GROUP BY key")
    return RoutePlan(Route.SCATTER_AGG, table=source.name)
