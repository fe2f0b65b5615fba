"""Persistence tests: snapshot round-trips and admin re-attachment."""

import pytest

from repro.core import AccessControlManager, EnforcementMonitor, Policy, PolicyRule
from repro.engine import Database, persist
from repro.engine.index import IndexDefinition
from repro.engine.types import BitString
from repro.errors import ConfigurationError, EngineError
from repro.workload import apply_experiment_policies


class TestRoundTrip:
    def test_schema_and_rows_roundtrip(self):
        database = Database("snap")
        database.execute(
            "create table t (a integer primary key, b text not null, "
            "c double, d boolean)"
        )
        database.execute("insert into t values (1, 'x', 2.5, true)")
        database.execute("insert into t values (2, 'y', null, false)")
        restored = persist.loads(persist.dumps(database))
        assert restored.name == "snap"
        assert restored.table("t").schema.column_names == ("a", "b", "c", "d")
        assert restored.table("t").rows == database.table("t").rows
        assert restored.table("t").schema.columns[0].primary_key
        assert restored.table("t").schema.columns[1].not_null

    def test_bitstring_values_roundtrip(self):
        database = Database()
        database.execute("create table t (p bit varying)")
        database.table("t").insert_row((BitString.from_bits("010110"),))
        database.table("t").insert_row((None,))
        restored = persist.loads(persist.dumps(database))
        values = restored.table("t").column_values("p")
        assert values[0] == BitString.from_bits("010110")
        assert values[1] is None

    def test_restored_database_is_queryable(self):
        database = Database()
        database.execute("create table t (v integer)")
        database.execute("insert into t values (1), (2), (3)")
        restored = persist.loads(persist.dumps(database))
        assert restored.query("select sum(v) from t").scalar() == 6

    def test_file_roundtrip(self, tmp_path):
        database = Database()
        database.execute("create table t (v integer)")
        database.execute("insert into t values (42)")
        path = tmp_path / "snapshot.json"
        persist.dump(database, path)
        restored = persist.load(path)
        assert restored.query("select v from t").scalar() == 42

    def test_dump_inside_a_transaction_writes_the_committed_state(self):
        database = Database()
        database.execute("create table t (v integer)")
        database.execute("insert into t values (1)")
        database.execute("begin")
        database.execute("insert into t values (2)")
        database.execute("alter table t add column w integer")
        database.execute("create index i_v on t (v)")
        snapshot = persist.dumps(database)
        database.execute("rollback")
        restored = persist.loads(snapshot)
        assert restored.table("t").rows == [(1,)]
        assert restored.table("t").schema.column_names == ("v",)
        assert len(restored.indexes) == 0
        assert restored.transactions.clock == database.transactions.clock

    def test_version_checked(self):
        with pytest.raises(EngineError):
            persist.from_document({"version": 99, "tables": []})

    def test_default_values_roundtrip(self):
        database = Database()
        database.execute("create table t (v integer default 7)")
        restored = persist.loads(persist.dumps(database))
        restored.execute("insert into t (v) values (1)")
        assert restored.table("t").schema.columns[0].default == 7


class TestIndexRoundTrip:
    @staticmethod
    def _database():
        database = Database("idx")
        database.execute(
            "create table t (a integer, b text, policy bit varying)"
        )
        database.policy_column = "policy"
        database.execute("insert into t values (1, 'x', null), (2, 'y', null)")
        return database

    def test_index_definitions_roundtrip(self):
        database = self._database()
        database.execute("create index i_a on t (a)")
        database.execute("create index i_b on t (b) using hash")
        restored = persist.loads(persist.dumps(database))
        definitions = {d.name: d for d in restored.indexes.definitions()}
        assert definitions["i_a"].kind == "btree"
        assert definitions["i_a"].columns == ("a",)
        assert definitions["i_b"].kind == "hash"

    def test_restored_index_is_usable(self):
        database = self._database()
        database.execute("create index i_a on t (a)")
        restored = persist.loads(persist.dumps(database))
        assert restored.indexes.lookup_equal("i_a", 2) == [1]

    def test_pinned_reader_keeps_a_reloaded_index_after_drop(self):
        """A reloaded index is a catalog entry like any other: a snapshot
        pinned before DROP INDEX still finds it and plans its IndexScan."""
        from repro.engine import txn_scope
        from repro.engine.plan import IndexScan, walk

        restored = persist.loads(persist.dumps(self._database()))
        restored.execute("create index i_a on t (a)")
        restored = persist.loads(persist.dumps(restored))
        pinned = restored.transactions.begin()
        restored.execute("drop index i_a")
        assert restored.indexes.find("i_a") is None
        with txn_scope(pinned):
            assert restored.indexes.find("i_a") == IndexDefinition("i_a", "t", ("a",))
            prepared = restored.prepare("select b from t where a = 2")
            (arm,) = prepared._arms()[1]
            scans = [
                node for node in walk(arm.block.filter or arm.block.source_root)
                if isinstance(node, IndexScan)
            ]
            assert [scan.index_name for scan in scans] == ["i_a"]
            assert prepared.execute().rows == [("y",)]
        restored.transactions.rollback(pinned)

    def test_drop_column_drops_the_indexes_keyed_on_it(self):
        """An index on a dropped column goes in the same commit, so a
        checkpoint never carries a definition its reload cannot build."""
        database = self._database()
        database.execute("create index i_a on t (a)")
        database.execute("create index i_b on t (b)")
        database.execute("create index i_ab on t (a, b)")
        database.execute("begin")
        database.execute("create index i_staged on t (b)")
        database.execute("alter table t drop column b")
        database.execute("commit")
        assert [d.name for d in database.indexes.definitions()] == ["i_a"]
        restored = persist.loads(persist.dumps(database))
        assert [d.name for d in restored.indexes.definitions()] == ["i_a"]
        assert restored.indexes.lookup_equal("i_a", 2) == [1]


class TestAdminReattachment:
    def test_from_existing_restores_enforcement(self, policy_scenario):
        snapshot = persist.dumps(policy_scenario.database)
        restored_db = persist.loads(snapshot)
        admin = AccessControlManager.from_existing(restored_db)
        monitor = EnforcementMonitor(admin)

        original = policy_scenario.monitor.execute(
            "select user_id from users", "p1"
        )
        restored = monitor.execute("select user_id from users", "p1")
        assert sorted(restored.rows) == sorted(original.rows)

    def test_from_existing_restores_purposes_and_categories(self, scenario):
        snapshot = persist.dumps(scenario.database)
        admin = AccessControlManager.from_existing(persist.loads(snapshot))
        assert admin.purposes.ids() == scenario.admin.purposes.ids()
        assert (
            admin.category("sensed_data", "temperature")
            is scenario.admin.category("sensed_data", "temperature")
        )

    def test_from_existing_requires_configured_db(self):
        with pytest.raises(ConfigurationError):
            AccessControlManager.from_existing(Database())

    def test_reattached_admin_can_evolve(self, policy_scenario):
        restored_db = persist.loads(persist.dumps(policy_scenario.database))
        admin = AccessControlManager.from_existing(restored_db)
        admin.apply_policy(Policy("users", (PolicyRule.pass_none(),)))
        monitor = EnforcementMonitor(admin)
        assert len(monitor.execute("select user_id from users", "p1")) == 0
