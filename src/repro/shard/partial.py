"""Partial-aggregate decomposition and the scatter-gather merge operators.

A ``SCATTER_AGG`` statement is rewritten into one *shard statement* whose
select list is ``group keys ++ partial aggregates`` and a :class:`MergeSpec`
that says how the coordinator folds the per-shard partial rows back into the
original result:

==========  =========================  =====================================
aggregate   shard partials             merge
==========  =========================  =====================================
COUNT       ``count(x)`` / ``count(*)``  integer sum of the partials
SUM         ``sum(x)``                 sum of non-NULL partials, NULL if all
                                       partials are NULL (zero input rows)
MIN / MAX   ``min(x)`` / ``max(x)``    min/max of non-NULL partials, NULL if
                                       all are NULL
AVG         ``sum(x), count(x)``       merged-sum / merged-count, NULL when
                                       the merged count is zero
==========  =========================  =====================================

NULL semantics follow the engine's aggregate states exactly: NULL inputs
are skipped, empty inputs yield NULL (COUNT yields 0), and an empty *shard*
contributes a NULL/0 partial row for scalar aggregates and no rows at all
under GROUP BY.  Groups are merged by key equality in first-seen order
across shards (row order is not part of the contract — the differential
battery compares multisets).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..engine.aggregates import aggregate_factory
from ..errors import ExecutionError
from ..sql import ast
from ..sql.printer import print_expression


@dataclass(frozen=True)
class MergeColumn:
    """How one *original* select item is produced from shard partials.

    ``kind`` is ``"key"`` (GROUP BY key: ``key_index`` into the group
    tuple) or an aggregate name; ``partial_indexes`` are the positions of
    this aggregate's partials in the shard rows (two for AVG: sum, count).
    """

    kind: str
    name: str
    key_index: int | None = None
    partial_indexes: tuple[int, ...] = ()


@dataclass(frozen=True)
class MergeSpec:
    """Everything the coordinator needs to fold shard rows back together."""

    columns: tuple[MergeColumn, ...]
    key_count: int
    grouped: bool

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(column.name for column in self.columns)


def _output_name(item: ast.SelectItem) -> str:
    """The engine's output-column naming, reproduced for merged results."""
    if item.alias:
        return item.alias
    expression = item.expression
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name
    return print_expression(expression)


def decompose(select: ast.Select) -> tuple[ast.Select, MergeSpec]:
    """Split a shardable aggregate SELECT into shard statement + merge spec.

    The shard statement projects every GROUP BY key first, then the
    partial aggregates; the original WHERE and GROUP BY are kept verbatim,
    so per-row policy guards run on the shards exactly as they would have
    run in the single-node plan.
    """
    keys = tuple(select.group_by)
    shard_items: list[ast.SelectItem] = [
        ast.SelectItem(expression) for expression in keys
    ]
    columns: list[MergeColumn] = []
    for item in select.items:
        expression = item.expression
        name = _output_name(item)
        if isinstance(expression, ast.FunctionCall) and (
            expression.name.lower() in ast.AGGREGATE_FUNCTIONS
        ):
            kind = expression.name.lower()
            if kind == "avg":
                argument = expression.args[0]
                positions = (len(shard_items), len(shard_items) + 1)
                shard_items.append(
                    ast.SelectItem(ast.FunctionCall("sum", (argument,)))
                )
                shard_items.append(
                    ast.SelectItem(ast.FunctionCall("count", (argument,)))
                )
            else:
                positions = (len(shard_items),)
                shard_items.append(ast.SelectItem(expression))
            columns.append(
                MergeColumn(kind=kind, name=name, partial_indexes=positions)
            )
        else:
            columns.append(
                MergeColumn(
                    kind="key", name=name, key_index=keys.index(expression)
                )
            )
    shard_select = dataclasses.replace(
        select, items=tuple(shard_items), group_by=keys
    )
    return shard_select, MergeSpec(
        columns=tuple(columns), key_count=len(keys), grouped=bool(keys)
    )


# -- merge operators ---------------------------------------------------------------


def _merge_count(values: list) -> int:
    return sum(value for value in values if value is not None)


def _merge_sum(values: list):
    present = [value for value in values if value is not None]
    if not present:
        return None
    total = present[0]
    for value in present[1:]:
        total = total + value
    return total


def _merge_extreme(name: str, values: list):
    """MIN/MAX of the partials by the engine's own accumulator, so a mix the
    engine refuses to order raises the same ``TypeMismatchError``."""
    accumulator = aggregate_factory(name)()
    accumulator.fold(values)
    return accumulator.result()


def _merge_avg(sums: list, counts: list):
    count = _merge_count(counts)
    if not count:
        return None
    total = _merge_sum(sums)
    return total / count


def merge_rows(spec: MergeSpec, shard_rows: "list[list[tuple]]") -> list[tuple]:
    """Fold per-shard partial rows into the original result rows.

    ``shard_rows`` is one list of partial rows per shard, in shard-index
    order.  Scalar aggregates (no GROUP BY) merge all shards' single
    partial rows into exactly one output row; grouped aggregates merge by
    key tuple in first-seen order.
    """
    if not spec.grouped:
        partials = [row for rows in shard_rows for row in rows]
        return [_fold(spec, partials)]
    groups: "dict[tuple, list[tuple]]" = {}
    for rows in shard_rows:
        for row in rows:
            key = tuple(row[: spec.key_count])
            try:
                groups.setdefault(key, []).append(row)
            except TypeError as exc:  # unhashable GROUP BY key
                raise ExecutionError(f"unmergeable GROUP BY key: {exc}") from exc
    return [_fold(spec, partials, key) for key, partials in groups.items()]


def _fold(
    spec: MergeSpec, partials: "list[tuple]", key: tuple | None = None
) -> tuple:
    row: list[object] = []
    for column in spec.columns:
        if column.kind == "key":
            assert key is not None and column.key_index is not None
            row.append(key[column.key_index])
        elif column.kind == "count":
            row.append(
                _merge_count([p[column.partial_indexes[0]] for p in partials])
            )
        elif column.kind == "sum":
            row.append(
                _merge_sum([p[column.partial_indexes[0]] for p in partials])
            )
        elif column.kind in ("min", "max"):
            row.append(
                _merge_extreme(
                    column.kind, [p[column.partial_indexes[0]] for p in partials]
                )
            )
        elif column.kind == "avg":
            row.append(
                _merge_avg(
                    [p[column.partial_indexes[0]] for p in partials],
                    [p[column.partial_indexes[1]] for p in partials],
                )
            )
        else:  # pragma: no cover - decompose() never emits other kinds
            raise ExecutionError(f"unknown merge kind {column.kind!r}")
    return tuple(row)
