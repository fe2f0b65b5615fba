"""Row placement and query routing: the two decisions in repro.shard.router."""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, SqlType, TableSchema
from repro.shard.router import (
    Route,
    classify,
    partition_key_indexes,
    partition_rows,
    shard_of,
    single_shard,
)
from repro.sql import parse_statement

POLICY = "policy"


@pytest.fixture()
def database():
    db = Database("routing")
    db.create_table(
        TableSchema(
            "users",
            [
                Column("user_id", SqlType.TEXT, primary_key=True),
                Column("name", SqlType.TEXT),
                Column(POLICY, SqlType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "readings",
            [
                Column("watch_id", SqlType.TEXT),
                Column("beats", SqlType.INTEGER),
                Column("temp", SqlType.DOUBLE),
                Column(POLICY, SqlType.TEXT),
            ],
        )
    )
    return db


class TestRowPlacement:
    def test_primary_key_columns_drive_placement(self, database) -> None:
        table = database.table("users")
        assert partition_key_indexes(table, POLICY) == (0,)

    def test_no_primary_key_hashes_all_but_policy(self, database) -> None:
        table = database.table("readings")
        # Every column except the policy cell: its value is rewritten by
        # policy writes and must not move the row to another shard.
        assert partition_key_indexes(table, POLICY) == (0, 1, 2)

    def test_placement_is_deterministic_and_in_range(self) -> None:
        for count in (1, 2, 3, 7):
            for row in [("a", 1), ("b", 2), ("c", None)]:
                first = shard_of(row, (0, 1), count)
                assert 0 <= first < count
                assert shard_of(row, (0, 1), count) == first

    def test_policy_rewrite_does_not_move_rows(self, database) -> None:
        table = database.table("readings")
        keys = partition_key_indexes(table, POLICY)
        before = shard_of(("w1", 70, 36.5, "mask-a"), keys, 5)
        after = shard_of(("w1", 70, 36.5, "mask-b"), keys, 5)
        assert before == after

    def test_partition_rows_is_a_partition(self, database) -> None:
        table = database.table("users")
        rows = [(f"u{i}", f"name{i}", "m") for i in range(40)]
        table.extend(rows)
        partitions = partition_rows(table, 4, POLICY)
        assert sum(len(p) for p in partitions) == len(rows)
        assert sorted(r for p in partitions for r in p) == sorted(rows)
        # Order within a shard preserves table order.
        for partition in partitions:
            indexes = [rows.index(row) for row in partition]
            assert indexes == sorted(indexes)


SCATTER_ROWS_QUERIES = (
    "select user_id from users",
    "select user_id, name from users where name like 'a%'",
    "select * from readings where beats > 70 and temp < 38.0",
)

SCATTER_AGG_QUERIES = (
    "select count(*) from readings",
    "select min(temp), max(temp) from readings",
    "select sum(beats), avg(beats) from readings",
    "select watch_id, count(*) from readings group by watch_id",
    "select watch_id, avg(beats) from readings where beats > 0 group by watch_id",
)

LOCAL_QUERIES = (
    # joins / multiple sources
    "select u.name from users u, readings r where u.user_id = r.watch_id",
    # subqueries
    "select user_id from users where user_id in (select watch_id from readings)",
    # order-sensitive clauses
    "select user_id from users order by user_id",
    "select user_id from users limit 3",
    "select distinct name from users",
    # float SUM/AVG partials are not exactly mergeable
    "select sum(temp) from readings",
    "select avg(temp) from readings",
    # DISTINCT aggregates need the cross-shard value set
    "select count(distinct watch_id) from readings",
    # aggregate buried in an expression
    "select count(*) + 1 from readings",
    # HAVING
    "select watch_id, count(*) from readings group by watch_id having count(*) > 1",
    # item that is not a GROUP BY key
    "select beats, count(*) from readings group by watch_id",
    # unknown table falls back to the replica (which raises properly)
    "select x from nowhere",
)


class TestClassify:
    @pytest.mark.parametrize("sql", SCATTER_ROWS_QUERIES)
    def test_scatter_rows(self, database, sql: str) -> None:
        plan = classify(parse_statement(sql), database)
        assert plan.route is Route.SCATTER_ROWS, plan

    @pytest.mark.parametrize("sql", SCATTER_AGG_QUERIES)
    def test_scatter_agg(self, database, sql: str) -> None:
        plan = classify(parse_statement(sql), database)
        assert plan.route is Route.SCATTER_AGG, plan

    @pytest.mark.parametrize("sql", LOCAL_QUERIES)
    def test_local(self, database, sql: str) -> None:
        plan = classify(parse_statement(sql), database)
        assert plan.route is Route.LOCAL, plan

    def test_dml_routes_local(self, database) -> None:
        plan = classify(
            parse_statement("insert into users values ('u', 'n', 'm')"),
            database,
        )
        assert plan.route is Route.LOCAL

    def test_set_operations_route_local(self, database) -> None:
        plan = classify(
            parse_statement(
                "select user_id from users union select watch_id from readings"
            ),
            database,
        )
        assert plan.route is Route.LOCAL


# -- the SINGLE route ----------------------------------------------------------------


@pytest.fixture()
def keyed(database):
    """Adds a composite-key table: ``samples (watch_id TEXT, ts INTEGER)``."""
    database.create_table(
        TableSchema(
            "samples",
            [
                Column("watch_id", SqlType.TEXT, primary_key=True),
                Column("ts", SqlType.INTEGER, primary_key=True),
                Column("beats", SqlType.INTEGER),
                Column(POLICY, SqlType.TEXT),
            ],
        )
    )
    database.table("samples").extend(
        [(f"w{i % 5}", i, 60 + i, "m") for i in range(40)]
    )
    return database


def _plan(database, sql: str, **kwargs):
    return classify(parse_statement(sql), database, **kwargs)


SINGLE_QUERIES = (
    # (sql, params) — every one names the key ('w3', 8)
    ("select beats from samples where watch_id = 'w3' and ts = 8", None),
    ("select beats from samples where 8 = ts and 'w3' = watch_id", None),
    ("select beats from samples s where s.watch_id = 'w3' and s.ts = 8", None),
    ("select beats from samples where watch_id = ? and ts = ?", ["w3", 8]),
    ("select beats from samples where ts = $2 and watch_id = $1", ("w3", 8)),
    (
        "select beats from samples where watch_id = :w and ts = :t",
        {"w": "w3", "T": 8},
    ),
    (
        "select beats from samples where watch_id = ? and beats > 0 and ts = 8",
        ["w3"],
    ),
)

NOT_SINGLE_QUERIES = (
    # partial key
    "select beats from samples where watch_id = 'w3'",
    "select beats from samples where ts = 8 and beats = 68",
    # a key column under OR, or compared by anything but equality
    "select beats from samples where watch_id = 'w3' and (ts = 8 or ts = 9)",
    "select beats from samples where watch_id = 'w3' or ts = 8",
    "select beats from samples where watch_id = 'w3' and ts >= 8",
    "select beats from samples where watch_id = 'w3' and ts in (8)",
    "select beats from samples where not (watch_id = 'w3' and ts = 8)",
    # equated with something that is not a literal or a parameter
    "select beats from samples where watch_id = 'w3' and ts = beats",
    "select beats from samples where watch_id = 'w3' and ts = 4 + 4",
    # no WHERE at all
    "select beats from samples",
    # a key-less table: placement hashes the whole row
    "select beats from readings where watch_id = 'w3' and beats = 8 and temp = 1.5",
)


class TestSingleRoute:
    @pytest.mark.parametrize("shard_count", (1, 3))
    @pytest.mark.parametrize("sql,params", SINGLE_QUERIES)
    def test_full_key_equality_names_the_rows_shard(
        self, keyed, sql: str, params, shard_count: int
    ) -> None:
        plan = _plan(keyed, sql)
        assert plan.route is Route.SINGLE, plan
        table = keyed.table("samples")
        partitions = partition_rows(table, shard_count, POLICY)
        target = single_shard(plan.key, params, shard_count)
        holders = [
            index
            for index, rows in enumerate(partitions)
            if any(row[:2] == ("w3", 8) for row in rows)
        ]
        assert holders == [target]

    @pytest.mark.parametrize("sql", NOT_SINGLE_QUERIES)
    def test_anything_less_scatters(self, keyed, sql: str) -> None:
        assert _plan(keyed, sql).route is Route.SCATTER_ROWS

    @pytest.mark.parametrize(
        "value", (8.0, "8", True, None), ids=("float", "text", "bool", "null")
    )
    def test_a_value_not_spelled_like_the_stored_key_scatters(
        self, keyed, value
    ) -> None:
        """Placement hashes ``repr``: ``8.0`` equals the stored ``8`` and
        hashes elsewhere, so only the exact stored type picks a shard."""
        plan = _plan(keyed, "select beats from samples where watch_id = ? and ts = ?")
        assert single_shard(plan.key, ["w3", 8], 3) is not None
        assert single_shard(plan.key, ["w3", value], 3) is None
        assert single_shard(plan.key, [3, 8], 3) is None

    def test_literal_of_another_type_scatters_at_execution(self, keyed) -> None:
        plan = _plan(
            keyed, "select beats from samples where watch_id = 'w3' and ts = 8.0"
        )
        assert plan.route is Route.SINGLE
        assert single_shard(plan.key, None, 3) is None

    def test_a_missing_binding_scatters(self, keyed) -> None:
        """The shards then raise what the single node raises."""
        plan = _plan(keyed, "select beats from samples where watch_id = ? and ts = ?")
        assert single_shard(plan.key, ["w3"], 3) is None
        assert single_shard(plan.key, None, 3) is None

    def test_double_keys_never_route_single(self, database) -> None:
        """``-0.0 = 0.0`` holds and the two hash apart."""
        database.create_table(
            TableSchema(
                "gauges",
                [Column("level", SqlType.DOUBLE, primary_key=True), Column(POLICY, SqlType.TEXT)],
            )
        )
        plan = _plan(database, "select level from gauges where level = 0.0")
        assert plan.route is Route.SCATTER_ROWS


class TestCoordinatorLocalTables:
    def test_a_table_the_shards_do_not_hold_routes_local(self, database) -> None:
        partitioned = frozenset({"users"})
        for sql in ("select count(*) from readings", "select beats from readings"):
            plan = _plan(database, sql, partitioned=partitioned)
            assert plan.route is Route.LOCAL
            assert plan.reason == "coordinator-local table"
        plan = _plan(database, "select user_id from users", partitioned=partitioned)
        assert plan.route is Route.SCATTER_ROWS
