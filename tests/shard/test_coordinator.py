"""Scatter-gather coordination: routes, writes, and the epoch fence."""

from __future__ import annotations

import asyncio

import pytest

from repro.core import Policy, PolicyRule
from repro.errors import (
    ExecutionError,
    TypeMismatchError,
    UnauthorizedPurposeError,
)
from repro.shard import (
    EPOCH_RETRIES,
    ShardCoordinator,
    SplitEpochError,
    WorldRecipe,
)

RECIPE = WorldRecipe.for_patients(
    patients=8, samples=3, grants=(("demo", "p6"), ("demo", "p1"))
)


@pytest.fixture()
def coordinator():
    instance = ShardCoordinator(RECIPE, 3)
    yield instance
    instance.close()


def run(coro):
    return asyncio.run(coro)


def reference_world():
    """An identical unsharded world: the single-node result to agree with."""
    from repro.shard.recipe import build_world

    return build_world(RECIPE)


def test_inline_is_the_only_shard_transport() -> None:
    with pytest.raises(ValueError, match="unknown shard backend"):
        ShardCoordinator(RECIPE, 3, backend="process")


class TestQueryRoutes:
    def test_scatter_rows_matches_single_node(self, coordinator) -> None:
        sql = "select watch_id, beats from sensed_data where beats > 60"
        report = run(coordinator.query(sql, "p6", user="demo"))
        expected = reference_world().monitor.execute(sql, "p6")
        assert report.route == "scatter_rows"
        assert report.shards == 3
        assert list(report.result.columns) == list(expected.columns)
        assert sorted(report.result.rows) == sorted(expected.rows)

    def test_scatter_agg_matches_single_node(self, coordinator) -> None:
        sql = (
            "select position, count(*), avg(beats), min(beats), max(beats) "
            "from sensed_data group by position"
        )
        report = run(coordinator.query(sql, "p6", user="demo"))
        expected = reference_world().monitor.execute(sql, "p6")
        assert report.route == "scatter_agg"
        assert list(report.result.columns) == list(expected.columns)
        assert sorted(report.result.rows, key=repr) == sorted(
            expected.rows, key=repr
        )

    def test_local_route_matches_single_node(self, coordinator) -> None:
        sql = "select watch_id from sensed_data order by watch_id limit 4"
        report = run(coordinator.query(sql, "p6", user="demo"))
        expected = reference_world().monitor.execute(sql, "p6")
        assert report.route == "local"
        assert report.shards == 0
        assert list(report.result.rows) == list(expected.rows)

    def test_scalar_count_matches_single_node(self, coordinator) -> None:
        # count(*) discloses no protected column, so enforcement admits
        # every row — single-node and merged-partial counts must agree on
        # that semantics exactly.
        sql = "select count(*) from sensed_data"
        report = run(coordinator.query(sql, "p6", user="demo"))
        expected = reference_world().monitor.execute(sql, "p6")
        assert report.route == "scatter_agg"
        assert list(report.result.rows) == list(expected.rows)

    def test_unauthorized_purpose_is_rejected_before_scatter(
        self, coordinator
    ) -> None:
        fanout_before = int(
            coordinator.metrics.counter("repro_shard_fanout_total").value()
        )
        with pytest.raises(UnauthorizedPurposeError):
            run(
                coordinator.query(
                    "select watch_id from sensed_data", "p6", user="nobody"
                )
            )
        assert (
            int(coordinator.metrics.counter("repro_shard_fanout_total").value())
            == fanout_before
        )


class TestWrites:
    def test_dml_resyncs_partitions(self, coordinator) -> None:
        before = run(
            coordinator.query("select count(*) from users", "p6", user="demo")
        ).result.rows[0][0]
        affected = run(
            coordinator.execute(
                "insert into users (user_id, watch_id, nutritional_profile_id) "
                "values ('fresh', 'watch0', 1)",
                "p6",
                user="demo",
            )
        )
        assert affected == 1
        after = run(
            coordinator.query("select count(*) from users", "p6", user="demo")
        ).result.rows[0][0]
        assert after == before + 1

    def test_execute_rejects_select(self, coordinator) -> None:
        with pytest.raises(ValueError, match="DML path"):
            run(coordinator.execute("select 1 from users", "p6", user="demo"))

    def test_policy_write_changes_shard_enforcement(self, coordinator) -> None:
        table = coordinator.database.table("sensed_data")
        policy_index = list(
            c.name for c in table.schema.columns
        ).index(coordinator.database.policy_column)
        enforced = run(
            coordinator.query("select * from sensed_data", "p6", user="demo")
        )
        assert len(enforced.result.rows) < len(table)
        permissive = next(
            row[policy_index]
            for row in enforced.result.rows  # a mask that admits p6
        )
        epoch_before = coordinator.admin.policy_epoch

        def grant_everywhere(world):
            rows = [
                row[:policy_index] + (permissive,) + row[policy_index + 1 :]
                for row in world.database.table("sensed_data").rows
            ]
            world.database.table("sensed_data").rows = rows

        run(coordinator.policy_write(grant_everywhere))
        # Masks are rows: the write moves no epoch, the resync carries it.
        assert coordinator.admin.policy_epoch == epoch_before
        widened = run(
            coordinator.query("select * from sensed_data", "p6", user="demo")
        )
        assert len(widened.result.rows) == len(table)
        assert widened.epoch == epoch_before

    def test_bump_epoch_reaches_every_shard(self, coordinator) -> None:
        target = run(coordinator.bump_epoch())
        assert target == coordinator.admin.policy_epoch
        for shard in coordinator._shards:
            assert shard.worker.admin.policy_epoch == target


class TestEpochFence:
    def test_split_epoch_scatter_fails_loudly(self, coordinator) -> None:
        # Desynchronize one shard behind the coordinator's back: every
        # scatter now observes two epochs, and because inline shards never
        # heal on their own, the bounded retry loop must raise.
        coordinator._shards[0].worker.admin.bump_policy_epoch()
        with pytest.raises(SplitEpochError, match="observed epochs"):
            run(
                coordinator.query(
                    "select watch_id from sensed_data", "p6", user="demo"
                )
            )
        retries = int(
            coordinator.metrics.counter("repro_shard_epoch_retries_total").value()
        )
        assert retries == EPOCH_RETRIES


class TestStats:
    def test_stats_aggregates_routes_and_shards(self, coordinator) -> None:
        run(coordinator.query("select watch_id from users", "p6", user="demo"))
        run(coordinator.query("select count(*) from users", "p6", user="demo"))
        run(
            coordinator.query(
                "select watch_id from users order by watch_id",
                "p6",
                user="demo",
            )
        )
        stats = run(coordinator.stats())
        assert stats["shard_count"] == 3
        assert stats["routes"] == {
            "scatter_rows": 1,
            "scatter_agg": 1,
            "local": 1,
        }
        assert len(stats["shards"]) == 3
        assert {shard["epoch"] for shard in stats["shards"]} == {
            coordinator.admin.policy_epoch
        }
        total = len(coordinator.database.table("users"))
        assert sum(s["rows"]["users"] for s in stats["shards"]) == total


class TestRouteCacheInvalidation:
    def test_catalog_commit_invalidates_route_cache(self, coordinator) -> None:
        """PR 10 regression: a DDL/catalog commit that bypasses the write
        paths (``execute()``/``policy_write()``) must still invalidate the
        bounded route cache — routes are stamped with the catalog version
        they were computed under."""
        sql = "select watch_id, beats from sensed_data where beats > 60"
        run(coordinator.query(sql, "p6", user="demo"))
        assert sql in coordinator._route_cache
        coordinator._route_cache["sentinel"] = ("stale", None, None)
        # DDL straight against the local replica: no coordinator write path.
        coordinator.database.execute(
            "create index i_beats on sensed_data (beats)"
        )
        coordinator._routed(sql)
        assert "sentinel" not in coordinator._route_cache
        assert (
            coordinator._route_cache_version
            == coordinator.database.catalog.version
        )

    def test_taxonomy_edit_invalidates_route_cache(self, coordinator) -> None:
        sql = "select watch_id from sensed_data order by watch_id limit 4"
        run(coordinator.query(sql, "p6", user="demo"))
        coordinator._route_cache["sentinel"] = ("stale", None, None)
        coordinator.admin.bump_policy_epoch()  # catalog commit, no fence
        coordinator._routed(sql)
        assert "sentinel" not in coordinator._route_cache

    def test_stats_reports_route_cache_version(self, coordinator) -> None:
        stats = run(coordinator.stats())
        assert stats["catalog_version"] == coordinator.database.catalog.version
        assert stats["route_cache"]["version"] == stats["catalog_version"]


POINT_SQL = (
    "select temperature, beats from sensed_data where watch_id = ? and timestamp = ?"
)
#: One statement per route; the reference is the single-node monitor.
ROUTE_PROBES = (
    ("single", POINT_SQL, ["watch3", 2]),
    ("scatter_rows", "select watch_id, beats from sensed_data where beats > 60", None),
    ("scatter_agg", "select position, count(*) from sensed_data group by position", None),
    ("local", "select watch_id from sensed_data order by watch_id limit 4", None),
)


def shard_stats(coordinator) -> list[dict]:
    return run(coordinator.stats())["shards"]


def assert_routes_answer(coordinator, reference=None, purpose: str = "p6") -> None:
    """Every route answers with the single-node rows."""
    reference = reference or reference_world()
    for route, sql, params in ROUTE_PROBES:
        report = run(coordinator.query(sql, purpose, user="demo", params=params))
        expected = reference.monitor.execute(sql, purpose, params=params)
        assert report.route == route
        assert sorted(report.result.rows, key=repr) == sorted(expected.rows, key=repr)


class TestCatalogShipping:
    """DDL on the replica reaches the shards by the next statement."""

    def test_index_ddl_without_a_bump_then_every_route_answers(
        self, coordinator
    ) -> None:
        coordinator.database.execute(
            "create index i_key on sensed_data (watch_id, timestamp)"
        )
        assert_routes_answer(coordinator)
        assert coordinator.epoch_broadcasts == 1
        for shard in shard_stats(coordinator):
            assert "i_key" in shard["indexes"]["names"]
            assert shard["catalog_version"] == coordinator.database.catalog.version

    def test_shards_probe_the_shipped_index(self, coordinator) -> None:
        coordinator.database.execute(
            "create index i_key on sensed_data (watch_id, timestamp)"
        )
        for row in coordinator.database.table("sensed_data").rows:
            run(coordinator.query(POINT_SQL, "p6", user="demo", params=list(row[:2])))
        for shard in shard_stats(coordinator):
            assert shard["indexes"]["hits"] > 0
            assert shard["indexes"]["rebuilds"] == 1  # built when it arrived
        # The one shard that holds the key examines the one row it names.
        row = coordinator.database.table("sensed_data").rows[0]
        examined = []
        for shard in coordinator._shards:
            lines = shard.worker.monitor.explain(
                POINT_SQL, "p6", params=list(row[:2]), analyze=True
            ).rows
            examined += [
                line for (line,) in lines if "IndexScan" in line and "(rows=" in line
            ]
        assert sorted("(rows=1," in line for line in examined) == [False, False, True]

    def test_create_drop_create_of_one_name_converges(self, coordinator) -> None:
        database = coordinator.database
        database.execute("create index i_churn on sensed_data (beats)")
        assert_routes_answer(coordinator)
        # Dropped and re-created over other columns between two statements:
        # the shards must end with the replica's definition, not the first.
        database.execute("drop index i_churn")
        database.execute("create index i_churn on sensed_data (watch_id, timestamp)")
        assert_routes_answer(coordinator)
        expected = database.indexes.get("i_churn")
        for shard in coordinator._shards:
            assert shard.worker.world.database.indexes.get("i_churn") == expected
        database.execute("drop index i_churn")
        assert_routes_answer(coordinator)
        for shard in shard_stats(coordinator):
            assert "i_churn" not in shard["indexes"]["names"]

    def test_alter_table_reaches_the_shards_with_the_rows(self, coordinator) -> None:
        database, reference = coordinator.database, reference_world()
        for world in (database, reference.database):
            world.execute("alter table users add column ward integer default 7")
            # Shipped in the same batch, over rows that are still narrow.
            world.execute("create index i_ward on users (ward)")
        for route, sql in (
            ("scatter_rows", "select user_id, ward from users"),
            ("scatter_rows", "select user_id from users where ward = 7"),
            ("single", "select ward from users where user_id = 'user0'"),
        ):
            report = run(coordinator.query(sql, "p6", user="demo"))
            expected = reference.monitor.execute(sql, "p6")
            assert report.route == route
            assert sorted(report.result.rows) == sorted(expected.rows)
            assert report.result.rows  # the default reached the shards' rows
        database.execute("drop index i_ward")
        database.execute("alter table users drop column ward")
        assert_routes_answer(coordinator)
        columns = database.table("users").schema.columns
        for shard in coordinator._shards:
            table = shard.worker.world.database.table("users")
            assert table.schema.columns == columns
            assert all(len(row) == len(columns) for row in table.rows)
        total = sum(s["rows"]["users"] for s in shard_stats(coordinator))
        assert total == len(database.table("users"))

    def test_a_table_created_on_the_replica_stays_coordinator_local(
        self, coordinator
    ) -> None:
        from repro.core import AuditLog
        from repro.shard.router import Route

        coordinator.monitor.attach_audit(AuditLog(coordinator.database))
        coordinator.database.execute("create index i_al on al (ui)")
        assert_routes_answer(coordinator)  # no bump_epoch() after the DDL
        for shard in shard_stats(coordinator):
            assert "al" not in shard["rows"]
            assert "i_al" not in shard["indexes"]["names"]
        for sql in ("select count(*) from al", "select ui from al where seq = 1"):
            assert coordinator._routed(sql)[0] is Route.LOCAL

    def test_a_dropped_table_is_dropped_on_the_shards(self, coordinator) -> None:
        coordinator.database.drop_table("nutritional_profiles")
        assert_routes_answer(coordinator)
        for shard in shard_stats(coordinator):
            assert "nutritional_profiles" not in shard["rows"]
        # A later table of the same name is a new, coordinator-local one.
        coordinator.database.execute("create table nutritional_profiles (id integer)")
        assert_routes_answer(coordinator)
        assert "nutritional_profiles" not in coordinator._shard_tables
        for shard in shard_stats(coordinator):
            assert "nutritional_profiles" not in shard["rows"]

    def test_policy_movement_behind_the_coordinator_still_fails_closed(
        self, coordinator
    ) -> None:
        """An ``acm`` commit that did not come through ``policy_write``:
        the coordinator cannot know which policy cells to resync."""
        coordinator.admin.bump_policy_epoch()
        coordinator.database.execute("create index i_beats on sensed_data (beats)")
        broadcasts = coordinator.epoch_broadcasts
        with pytest.raises(SplitEpochError, match="observed epochs"):
            run(coordinator.query(POINT_SQL, "p6", user="demo", params=["watch3", 2]))
        assert coordinator.epoch_broadcasts == broadcasts
        # The replica itself still answers, and a policy_write heals —
        # shipping the DDL that was stuck behind the policy change too.
        run(coordinator.query(ROUTE_PROBES[3][1], "p6", user="demo"))
        run(coordinator.policy_write(lambda world: None))
        assert_routes_answer(coordinator)
        for shard in shard_stats(coordinator):
            assert "i_beats" in shard["indexes"]["names"]

    def test_a_shard_never_runs_ahead_of_the_coordinator(self, coordinator) -> None:
        database = coordinator.database
        for step in range(4):
            database.execute(f"create index i_step{step} on sensed_data (beats)")
            if step % 2:
                database.execute(f"drop index i_step{step - 1}")
            run(coordinator.query(POINT_SQL, "p6", user="demo", params=["watch1", 1]))
            for shard in shard_stats(coordinator):
                assert shard["catalog_version"] == database.catalog.version
        # A shard that is ahead is a fault, and is reported as one.
        coordinator._shards[1].worker.admin.bump_policy_epoch()
        coordinator._shards[1].worker.admin.bump_policy_epoch()
        database.execute("create index i_last on sensed_data (position)")
        with pytest.raises(SplitEpochError, match="ahead of the coordinator"):
            run(coordinator.query(POINT_SQL, "p6", user="demo", params=["watch1", 1]))


class TestReplicaRowCommits:
    """A row commit made straight on the replica — a policy mask is one —
    reaches the shards before the next scatter."""

    @pytest.mark.parametrize("revocation", ("apply_policy", "update"))
    def test_revocation_on_the_replica_is_never_served_stale(
        self, coordinator, revocation
    ) -> None:
        sql = "select watch_id, beats from sensed_data where beats > 0"
        assert run(coordinator.query(sql, "p6", user="demo")).result.rows
        if revocation == "apply_policy":
            coordinator.admin.apply_policy(
                Policy("sensed_data", (PolicyRule.pass_none(),))
            )
        else:
            coordinator.database.execute("update sensed_data set policy = NULL")
        assert coordinator.monitor.execute(sql, "p6").rows == []
        report = run(coordinator.query(sql, "p6", user="demo"))
        assert report.route == "scatter_rows"
        assert report.result.rows == []


class TestSingleRoute:
    @pytest.mark.parametrize("shard_count", (1, 3))
    def test_point_lookups_go_to_one_shard_and_agree(self, shard_count: int) -> None:
        coordinator = ShardCoordinator(RECIPE, shard_count)
        reference = reference_world()
        try:
            fanout = coordinator.metrics.counter("repro_shard_fanout_total")
            for row in reference.database.table("sensed_data").rows:
                key = list(row[:2])
                before = int(fanout.value())
                report = run(coordinator.query(POINT_SQL, "p6", user="demo", params=key))
                expected = reference.monitor.execute(POINT_SQL, "p6", params=key)
                assert (report.route, report.shards) == ("single", 1)
                assert int(fanout.value()) == before + 1
                assert report.result.rows == expected.rows
            # The route cache holds the key recipe, not a target: one entry.
            assert len(coordinator._route_cache) == 1
            assert run(coordinator.stats())["routes"] == {
                "single": len(reference.database.table("sensed_data"))
            }
        finally:
            coordinator.close()

    @pytest.mark.parametrize(
        "value", (2.0, "2", True, None), ids=("float", "text", "bool", "null")
    )
    def test_type_mismatch_scatters_and_answers_like_the_single_node(
        self, coordinator, value
    ) -> None:
        params = ["watch3", value]
        try:
            expected = reference_world().monitor.execute(POINT_SQL, "p6", params=params)
        except TypeMismatchError as exc:
            # The shards raise what the single node raises (by wire code).
            with pytest.raises(ExecutionError, match=type(exc).__name__):
                run(coordinator.query(POINT_SQL, "p6", user="demo", params=params))
            return
        report = run(coordinator.query(POINT_SQL, "p6", user="demo", params=params))
        assert (report.route, report.shards) == ("scatter_rows", 3)
        assert report.result.rows == expected.rows

    def test_per_row_check_counts_are_conserved_across_shard_counts(self) -> None:
        """Optimizer off: every guard conjunct runs per row that passes the
        key filter, wherever that row lives."""
        reference = reference_world()
        reference.monitor.set_optimizer("off")
        counts = {}
        for shard_count in (1, 3):
            coordinator = ShardCoordinator(RECIPE, shard_count, optimizer="off")
            try:
                counts[shard_count] = [
                    run(
                        coordinator.query(
                            POINT_SQL, "p6", user="demo", params=list(row[:2])
                        )
                    ).compliance_checks
                    for row in reference.database.table("sensed_data").rows
                ]
            finally:
                coordinator.close()
        expected = [
            reference.monitor.execute_with_report(
                POINT_SQL, "p6", params=list(row[:2])
            ).compliance_checks
            for row in reference.database.table("sensed_data").rows
        ]
        assert counts[1] == counts[3] == expected
        assert sum(expected) > 0


class TestAudit:
    """The coordinator audits each client statement exactly once."""

    @pytest.fixture()
    def audited(self, coordinator):
        from repro.core import AuditLog

        log = AuditLog(coordinator.database)
        coordinator.monitor.attach_audit(log)
        return coordinator, log

    def test_one_record_per_statement_whatever_the_route(self, audited) -> None:
        coordinator, log = audited
        counter = coordinator.metrics.counter("repro_audit_records_total")
        for route, sql, params in ROUTE_PROBES:
            before = len(log)
            report = run(coordinator.query(sql, "p6", user="demo", params=params))
            assert len(log) == before + 1, route
            record = log.records[-1]
            assert (record.user, record.purpose, record.outcome) == (
                "demo", "p6", "allowed",
            )
            assert record.statement == sql
            assert record.rows == len(report.result.rows)
            assert record.compliance_checks == report.compliance_checks
            # A local statement is audited by the replica's own monitor.
            assert record.route == ("" if route == "local" else route)
        assert int(counter.value()) == len(log) == len(ROUTE_PROBES)
        # Query ids are the monitor's: the same statement, the same id.
        local = reference_world().monitor.prepare(POINT_SQL, "p6").query_id
        assert log.records[0].query_id == local
        # Shard-local execution leaves no trail of its own.
        for shard in coordinator._shards:
            assert shard.worker.monitor.audit is None

    def test_a_denial_before_the_scatter_is_audited(self, audited) -> None:
        coordinator, log = audited
        for _route, sql, params in ROUTE_PROBES:
            before = len(log)
            with pytest.raises(UnauthorizedPurposeError):
                run(coordinator.query(sql, "p6", user="nobody", params=params))
            assert len(log) == before + 1
            record = log.records[-1]
            assert (record.user, record.outcome, record.rows) == ("nobody", "denied", 0)
            assert record.statement == sql


class TestShardStats:
    def test_shard_rows_report_catalog_and_index_counters(self, coordinator) -> None:
        run(coordinator.query(POINT_SQL, "p6", user="demo", params=["watch3", 2]))
        stats = run(coordinator.stats())
        assert stats["routes"]["single"] == 1
        assert (
            coordinator.metrics.counter("repro_shard_queries_total").value(
                route="single"
            )
            == 1
        )
        for shard in stats["shards"]:
            assert shard["catalog_version"] == stats["catalog_version"]
            assert set(shard["indexes"]) == {"names", "hits", "rebuilds"}
