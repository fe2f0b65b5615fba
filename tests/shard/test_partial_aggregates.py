"""Partial-aggregate decomposition and merge: scatter == single-node.

The property battery generates random integer tables (with NULL runs and
NULL-only columns), splits the rows into *randomized* partitions — not the
hash partitioning, so empty shards and groups split across shards occur by
construction — executes the decomposed shard statement on each partition
with the real engine, merges with :func:`repro.shard.partial.merge_rows`,
and requires exact equality with the single-node execution of the original
statement: same column names, same row multiset, same value types.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Database
from repro.shard.partial import (
    MergeSpec,
    _merge_avg,
    _merge_count,
    _merge_extreme,
    _merge_sum,
    decompose,
    merge_rows,
)
from repro.sql import ast, parse_statement
from repro.sql.printer import to_sql

AGGREGATE_QUERIES = (
    "select count(*) from t",
    "select count(x) from t",
    "select sum(x) from t",
    "select avg(x) from t",
    "select min(x) from t",
    "select max(x) from t",
    "select count(*), sum(x), avg(x), min(x), max(x) from t",
    "select count(*) as n, avg(x) as mean from t",
    "select g, count(*) from t group by g",
    "select g, sum(x), avg(x) from t group by g",
    "select g, min(x), max(x), count(x) from t group by g",
    "select g, h, avg(x), count(*) from t group by g, h",
    "select count(*), avg(x) from t where x > 40",
    "select g, sum(x) from t where h = 'a' group by g",
)


def _build_db(rows: "list[tuple]") -> Database:
    database = Database("part")
    database.execute("create table t (g text, h text, x integer)")
    if rows:
        database.table("t").extend(rows)
    return database


def _random_rows(rng: random.Random, count: int) -> "list[tuple]":
    groups = ["g0", "g1", "g2", "g3"]
    subgroups = ["a", "b"]
    rows = []
    for _ in range(count):
        value = None if rng.random() < 0.25 else rng.randrange(-50, 100)
        rows.append((rng.choice(groups), rng.choice(subgroups), value))
    return rows


def _random_partitions(
    rng: random.Random, rows: "list[tuple]", shards: int
) -> "list[list[tuple]]":
    partitions: "list[list[tuple]]" = [[] for _ in range(shards)]
    for row in rows:
        partitions[rng.randrange(shards)].append(row)
    return partitions


def _scatter_gather(sql: str, partitions: "list[list[tuple]]"):
    select = parse_statement(sql)
    assert isinstance(select, ast.Select)
    shard_select, spec = decompose(select)
    shard_sql = to_sql(shard_select)
    shard_rows = [
        list(_build_db(partition).query(shard_sql).rows)
        for partition in partitions
    ]
    return spec, merge_rows(spec, shard_rows)


@pytest.mark.parametrize("trial", range(8))
def test_randomized_partitions_match_single_node(trial: int) -> None:
    rng = random.Random(20150311 + trial)
    rows = _random_rows(rng, rng.randrange(5, 120))
    shards = rng.randrange(1, 6)
    partitions = _random_partitions(rng, rows, shards)
    full = _build_db(rows)
    for sql in AGGREGATE_QUERIES:
        expected = full.query(sql)
        spec, merged = _scatter_gather(sql, partitions)
        assert tuple(spec.names) == tuple(expected.columns), sql
        assert sorted(merged) == sorted(expected.rows), (
            f"{sql} with {shards} shards: {merged} != {list(expected.rows)}"
        )


def test_null_only_column_matches_single_node() -> None:
    rows = [("g0", "a", None), ("g1", "a", None), ("g0", "b", None)]
    partitions = [[rows[0]], [], rows[1:]]  # includes an empty shard
    full = _build_db(rows)
    for sql in AGGREGATE_QUERIES:
        expected = full.query(sql)
        _, merged = _scatter_gather(sql, partitions)
        assert sorted(merged) == sorted(expected.rows), sql


def test_empty_table_matches_single_node() -> None:
    partitions: "list[list[tuple]]" = [[], [], []]
    full = _build_db([])
    for sql in AGGREGATE_QUERIES:
        expected = full.query(sql)
        _, merged = _scatter_gather(sql, partitions)
        assert sorted(merged) == sorted(expected.rows), sql


def test_groups_split_across_shards_merge_once() -> None:
    # Every shard holds rows of the same group: the merged result must
    # contain the group exactly once, with partials folded across shards.
    rows = [("g0", "a", 10), ("g0", "a", 20), ("g0", "b", 30)]
    partitions = [[rows[0]], [rows[1]], [rows[2]]]
    _, merged = _scatter_gather(
        "select g, count(*), sum(x), avg(x) from t group by g", partitions
    )
    assert merged == [("g0", 3, 60, 20.0)]


def test_avg_merge_is_exact_for_integers() -> None:
    # Partial avgs (20, 35) naively average to 27.5; the decomposed
    # sum/count merge recovers the true mean over all five values.
    partitions = [
        [("g0", "a", 10), ("g0", "a", 30)],
        [("g0", "a", 20), ("g0", "a", 40), ("g0", "a", 45)],
    ]
    _, merged = _scatter_gather("select avg(x) from t", partitions)
    assert merged == [(29.0,)]


class TestDecompose:
    def test_avg_splits_into_sum_and_count(self) -> None:
        select = parse_statement("select avg(x) from t")
        shard_select, spec = decompose(select)
        names = [item.expression.name for item in shard_select.items]
        assert names == ["sum", "count"]
        assert spec.columns[0].kind == "avg"
        assert spec.columns[0].partial_indexes == (0, 1)

    def test_group_keys_lead_the_shard_statement(self) -> None:
        select = parse_statement("select count(*), g from t group by g")
        shard_select, spec = decompose(select)
        assert isinstance(shard_select.items[0].expression, ast.ColumnRef)
        assert spec.key_count == 1
        assert [c.kind for c in spec.columns] == ["count", "key"]
        # The original item order is preserved in the merge spec even
        # though the shard statement reorders keys first.
        assert spec.names == ("count", "g")

    def test_aliases_survive_the_merge(self) -> None:
        select = parse_statement("select avg(x) as mean from t")
        _, spec = decompose(select)
        assert spec.names == ("mean",)


class TestMergeOperators:
    def test_count_sums_partials(self) -> None:
        assert _merge_count([2, 0, 3, None]) == 5

    def test_sum_is_null_iff_all_partials_null(self) -> None:
        assert _merge_sum([None, None]) is None
        assert _merge_sum([None, 4, 1]) == 5

    def test_min_max_skip_null_partials(self) -> None:
        assert _merge_extreme("min", [None, 7, 3]) == 3
        assert _merge_extreme("max", [None, 7, 3]) == 7
        assert _merge_extreme("min", [None, None]) is None

    def test_min_max_refuse_partials_the_engine_cannot_order(self) -> None:
        from repro.errors import TypeMismatchError

        for partials in ([3, "a"], [True, 2]):
            with pytest.raises(TypeMismatchError, match="cannot compare"):
                _merge_extreme("max", partials)

    def test_avg_null_on_zero_merged_count(self) -> None:
        assert _merge_avg([None, None], [0, 0]) is None
        assert _merge_avg([10, None, 20], [2, 0, 3]) == 6.0

    def test_unhashable_group_key_raises_execution_error(self) -> None:
        from repro.errors import ExecutionError
        from repro.shard.partial import MergeColumn

        spec = MergeSpec(
            columns=(
                MergeColumn(kind="key", name="k", key_index=0),
                MergeColumn(kind="count", name="n", partial_indexes=(1,)),
            ),
            key_count=1,
            grouped=True,
        )
        with pytest.raises(ExecutionError, match="unmergeable"):
            merge_rows(spec, [[([1], 2)]])
