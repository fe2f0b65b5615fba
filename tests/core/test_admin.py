"""Access Control Management tests (Section 5.1 configuration)."""

import pytest

from repro.core import (
    AccessControlManager,
    GENERIC,
    IDENTIFIER,
    Policy,
    PolicyRule,
    Purpose,
    SENSITIVE,
    default_purpose_set,
)
from repro.engine import Database
from repro.engine.types import BitString
from repro.errors import ConfigurationError, PolicyError
from repro.workload import CATEGORIZATION


@pytest.fixture()
def db():
    database = Database("target")
    database.execute("create table t (a integer, b text)")
    database.execute("insert into t values (1, 'x'), (2, 'y')")
    return database


@pytest.fixture()
def admin(db):
    manager = AccessControlManager(db)
    manager.configure(purposes=default_purpose_set())
    return manager


class TestConfiguration:
    def test_meta_tables_created(self, admin, db):
        for name in ("pr", "pm", "pa"):
            assert db.has_table(name)

    def test_pr_contains_purposes(self, admin, db):
        rows = db.query("select id, ds from pr").rows
        assert ("p1", "treatment") in rows
        assert len(rows) == 8

    def test_policy_column_appended_to_target_tables(self, admin, db):
        assert "policy" in db.table("t").schema
        # existing rows get a NULL policy (no access until one is granted)
        assert db.table("t").column_values("policy") == [None, None]

    def test_meta_tables_not_given_policy_column(self, admin, db):
        for name in ("pr", "pm", "pa"):
            assert "policy" not in db.table(name).schema

    def test_complieswith_registered(self, admin, db):
        assert "complieswith" in db.functions

    def test_double_configure_rejected(self, admin):
        with pytest.raises(ConfigurationError):
            admin.configure()

    def test_unconfigured_operations_rejected(self, db):
        manager = AccessControlManager(db)
        with pytest.raises(ConfigurationError):
            manager.grant_purpose("u", "p1")
        with pytest.raises(ConfigurationError):
            manager.layout("t")

    def test_target_tables_excludes_meta(self, admin):
        assert admin.target_tables() == ["t"]


class TestPurposeAdministration:
    def test_define_purpose_persists(self, admin, db):
        admin.define_purpose(Purpose("p9", "audit"))
        assert ("p9", "audit") in db.query("select id, ds from pr").rows
        assert "p9" in admin.purposes

    def test_remove_purpose(self, admin, db):
        admin.remove_purpose("p8")
        assert "p8" not in admin.purposes
        assert ("p8", "sale") not in db.query("select id, ds from pr").rows

    def test_purpose_change_invalidates_layouts(self, admin):
        before = admin.layout("t")
        admin.define_purpose(Purpose("p9", "audit"))
        after = admin.layout("t")
        assert after is not before
        # The new layout's purpose-mask section is one bit wider.
        assert after.payload_length == before.payload_length + 1


class TestCategorization:
    def test_categorize_and_lookup(self, admin, db):
        admin.categorize("t", "a", IDENTIFIER)
        assert admin.category("t", "a") is IDENTIFIER
        assert ("a", "t", "i") in db.query("select at, tb, ct from pm").rows

    def test_recategorize_replaces_row(self, admin, db):
        admin.categorize("t", "a", IDENTIFIER)
        admin.categorize("t", "a", SENSITIVE)
        rows = [r for r in db.query("select at, tb, ct from pm").rows if r[0] == "a"]
        assert rows == [("a", "t", "s")]
        assert admin.category("t", "a") is SENSITIVE

    def test_unclassified_defaults_to_generic(self, admin):
        # Section 4.1: skipped categorization implies generic.
        assert admin.category("t", "b") is GENERIC

    def test_unknown_column_rejected(self, admin):
        with pytest.raises(PolicyError):
            admin.categorize("t", "nope", IDENTIFIER)

    def test_figure2_categorization(self, scenario):
        for table, column, category in CATEGORIZATION:
            assert scenario.admin.category(table, column) is category


class TestAuthorizations:
    def test_grant_and_check(self, admin):
        admin.grant_purpose("alice", "p1")
        assert admin.is_authorized("alice", "p1")
        assert not admin.is_authorized("alice", "p2")
        assert not admin.is_authorized("bob", "p1")

    def test_revoke(self, admin):
        admin.grant_purpose("alice", "p1")
        assert admin.revoke_purpose("alice", "p1") == 1
        assert not admin.is_authorized("alice", "p1")

    def test_grant_unknown_purpose_rejected(self, admin):
        with pytest.raises(PolicyError):
            admin.grant_purpose("alice", "p99")


class TestLayouts:
    def test_layout_excludes_policy_column(self, admin):
        assert admin.layout("t").columns == ("a", "b")

    def test_layout_cached(self, admin):
        assert admin.layout("t") is admin.layout("t")

    def test_meta_table_layout_rejected(self, admin):
        with pytest.raises(PolicyError):
            admin.layout("pr")

    def test_schema_provider_protocol(self, admin):
        assert admin.table_columns("t") == ("a", "b")
        assert admin.has_table("t")
        assert not admin.has_table("pr")
        assert not admin.has_table("nope")


class TestPolicyInstallation:
    def test_apply_policy_whole_table(self, admin, db):
        count = admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
        assert count == 2
        masks = admin.policy_masks("t")
        assert all(mask == BitString.ones(24) for mask in masks)

    def test_apply_policy_tuple_selector(self, admin, db):
        policy = Policy(
            "t", (PolicyRule.pass_none(),), tuple_selector=("a", 2)
        )
        assert admin.apply_policy(policy) == 1
        masks = admin.policy_masks("t")
        assert masks[0] is None
        assert masks[1] == BitString.zeros(24)

    def test_apply_policy_validates_columns(self, admin):
        from repro.core import ActionType, JointAccess

        bad = Policy(
            "t",
            (
                PolicyRule.of(
                    ["no_such"], ["p1"], ActionType.indirect(JointAccess.none())
                ),
            ),
        )
        with pytest.raises(PolicyError):
            admin.apply_policy(bad)

    def test_a_mask_store_is_one_row_commit_and_no_epoch(self, admin, db):
        """Masks are row data (§5.3): each store advances the commit clock
        by one and leaves the catalog version (the policy epoch) alone."""
        writes = (
            lambda: admin.store_policy_mask("t", BitString.ones(24)),
            lambda: admin.apply_policy(Policy("t", (PolicyRule.pass_none(),))),
            lambda: admin.insert_with_policy(
                "t", (3, "z"), Policy("t", (PolicyRule.pass_all(),))
            ),
        )
        for write in writes:
            clock, version = db.transactions.clock, db.catalog.version
            write()
            assert db.transactions.clock == clock + 1
            assert db.catalog.version == version
        assert admin.policy_masks("t") == [BitString.zeros(24)] * 2 + [
            BitString.ones(24)
        ]

    def test_selected_mask_store_matches_with_and_without_an_index(self, tmp_path):
        """A tuple-selected store takes its rows from an index on the
        selector column, like any UPDATE: the masks, the one commit and its
        WAL record are the ones a scan writes."""
        from repro.engine.wal import open_database

        outcomes = []
        for indexed in (False, True):
            db, durability = open_database(tmp_path / str(indexed))
            db.execute("create table t (a integer, b text)")
            db.table("t").append_rows((i % 7, f"r{i}") for i in range(60))
            admin = AccessControlManager(db)
            admin.configure(purposes=default_purpose_set())
            admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
            if indexed:
                db.execute("create index t_a on t (a)")
            clock, appends = db.transactions.clock, durability.wal.appends
            probes = db.indexes.stats()["hits"]
            count = admin.store_policy_mask("t", BitString.zeros(24), ("a", 3))
            assert db.transactions.clock == clock + 1
            assert durability.wal.appends == appends + 1
            assert (db.indexes.stats()["hits"] > probes) == indexed
            records, _torn = durability.wal.replay()
            outcomes.append((count, admin.policy_masks("t"), records[-1]["tables"]))
            durability.close()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 9

    def test_rows_without_policy_are_invisible(self, admin, db):
        # NULL policy + STRICT UDF → complieswith yields NULL → row filtered.
        from repro.core import EnforcementMonitor

        monitor = EnforcementMonitor(admin)
        assert len(monitor.execute("select a from t", "p1")) == 0
        admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
        assert len(monitor.execute("select a from t", "p1")) == 2


class TestProtectTable:
    def test_late_table_can_be_protected(self, admin, db):
        db.execute("create table late (x integer)")
        db.execute("insert into late values (1)")
        admin.protect_table("late")
        assert "policy" in db.table("late").schema
        assert admin.layout("late").columns == ("x",)
        # Existing rows are invisible until a policy arrives.
        from repro.core import EnforcementMonitor

        monitor = EnforcementMonitor(admin)
        assert len(monitor.execute("select x from late", "p1")) == 0
        admin.apply_policy(Policy("late", (PolicyRule.pass_all(),)))
        assert len(monitor.execute("select x from late", "p1")) == 1

    def test_protect_is_idempotent(self, admin, db):
        db.execute("create table late (x integer)")
        admin.protect_table("late")
        admin.protect_table("late")
        assert db.table("late").schema.column_names.count("policy") == 1

    def test_meta_tables_rejected(self, admin):
        with pytest.raises(PolicyError):
            admin.protect_table("pr")
