"""The taxonomy is Pr/Pm rows, and plans compiled against staged
catalog changes stay private to their transaction.

A taxonomy edit (``define_purpose``, ``remove_purpose``, ``categorize``,
``protect_table``, ``bump_policy_epoch``) commits its rows and one
catalog version together, or joins the caller's transaction: a rollback
undoes both, and a pinned reader resolves the purposes and categories
its snapshot saw.  A transaction that staged DDL or a taxonomy edit
compiles its plans outside the shared plan cache.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core import (
    AccessControlManager,
    EnforcementMonitor,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
)
from repro.core.categories import GENERIC, QUASI_IDENTIFIER
from repro.engine import txn_scope
from repro.errors import SignatureError


@pytest.fixture()
def world():
    db = Database()
    db.execute("create table t (a integer, b text)")
    db.table("t").append_rows([(1, "x"), (2, "y")])
    admin = AccessControlManager(db)
    admin.configure(purposes=PurposeSet([Purpose("p1", "x")]))
    admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
    return db, admin, EnforcementMonitor(admin)


def test_plan_compiled_under_a_rolled_back_alter_is_not_cached(world) -> None:
    db, _, monitor = world
    db.begin()
    db.execute("alter table t add column c integer")
    inside = monitor.execute("select a, c from t", "p1")
    assert sorted(inside.rows) == [(1, None), (2, None)]
    db.rollback()
    with pytest.raises(SignatureError, match="unknown column 'c'"):
        monitor.execute("select a, c from t", "p1")
    assert sorted(monitor.execute("select a, b from t", "p1").rows) == [
        (1, "x"),
        (2, "y"),
    ]


def test_select_star_inside_an_alter_sees_the_staged_column(world) -> None:
    db, _, monitor = world
    columns = monitor.execute("select * from t", "p1").columns
    db.begin()
    db.execute("alter table t add column c integer")
    assert monitor.execute("select * from t", "p1").columns == [*columns, "c"]
    db.rollback()
    assert monitor.execute("select * from t", "p1").columns == columns


def test_taxonomy_edits_roll_back_with_their_transaction(world) -> None:
    db, admin, monitor = world
    version = db.catalog.version
    db.begin()
    admin.define_purpose(Purpose("p2", "y"))
    admin.categorize("t", "b", QUASI_IDENTIFIER)
    assert admin.purposes.ids() == ("p1", "p2")
    assert admin.category("t", "b") is QUASI_IDENTIFIER
    assert admin.layout("t").purpose_ids == ("p1", "p2")
    db.rollback()
    assert admin.purposes.ids() == ("p1",)
    assert admin.category("t", "b") is GENERIC
    assert admin.layout("t").purpose_ids == ("p1",)
    assert db.catalog.version == version
    assert sorted(monitor.execute("select b from t", "p1").rows) == [("x",), ("y",)]


def test_a_committed_edit_moves_the_version_once_with_its_rows(world) -> None:
    db, admin, _ = world
    version = db.catalog.version
    admin.categorize("t", "b", QUASI_IDENTIFIER)
    assert db.catalog.version == version + 1
    assert db.table("pm").rows == [("b", "t", QUASI_IDENTIFIER.code)]
    db.begin()
    admin.define_purpose(Purpose("p2", "y"))
    admin.remove_purpose("p1")
    db.commit()
    assert db.catalog.version == version + 2
    assert admin.purposes.ids() == ("p2",)


def test_a_pinned_reader_resolves_its_snapshots_taxonomy(world) -> None:
    db, admin, _ = world
    txn = db.transactions.begin()
    try:
        admin.define_purpose(Purpose("p2", "y"))
        admin.categorize("t", "a", QUASI_IDENTIFIER)
        with txn_scope(txn):
            assert admin.purposes.ids() == ("p1",)
            assert admin.category("t", "a") is GENERIC
        assert admin.purposes.ids() == ("p1", "p2")
        assert admin.category("t", "a") is QUASI_IDENTIFIER
    finally:
        db.transactions.rollback(txn)


def test_an_uncommitted_categorization_plans_for_its_transaction_only(world) -> None:
    db, admin, monitor = world
    query = "select a, b from t"
    before = monitor.execute_with_report(query, "p1").rewritten_sql
    db.begin()
    admin.categorize("t", "b", QUASI_IDENTIFIER)
    staged = monitor.execute_with_report(query, "p1")
    assert not staged.cache_hit and staged.rewritten_sql != before
    db.rollback()
    after = monitor.execute_with_report(query, "p1")
    assert after.cache_hit and after.rewritten_sql == before


def test_grants_read_pa_as_the_caller_sees_it(world) -> None:
    db, admin, _ = world
    assert not admin.known_user("u") and not admin.is_authorized("u", "p1")
    admin.grant_purpose("u", "p1")
    assert admin.known_user("u") and admin.is_authorized("u", "p1")
    db.begin()
    admin.revoke_purpose("u", "p1")
    assert not admin.known_user("u")
    db.rollback()
    assert admin.is_authorized("u", "p1")
    admin.revoke_purpose("u", "p1")
    assert not admin.is_authorized("u", "p1") and not admin.known_user("u")
