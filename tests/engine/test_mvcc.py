"""Snapshot-isolation MVCC semantics (DESIGN.md §15).

The visibility matrix, write-write conflict detection, staged state that
never outlives its transaction in a cache derived from the rows
(the policy posting index; index entries in ``test_index.py``), snapshot-scoped enforcement, and the row
history pruned to what pinned snapshots read.  The WAL/crash half lives in
``test_wal_recovery.py``; the differential schedules in
``tests/fuzz/test_snapshot_enforcement.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine import Snapshot, txn_scope
from repro.engine.database import Database
from repro.engine.mvcc import TransactionManager
from repro.errors import TransactionError, WriteConflictError


@pytest.fixture()
def db():
    database = Database("mvcc-test")
    database.execute("create table t (id integer, v text)")
    database.execute("insert into t values (1, 'a')")
    database.execute("insert into t values (2, 'b')")
    return database


def rows(db, sql="select id, v from t order by id"):
    return list(db.execute(sql).rows)


# -- the visibility matrix ----------------------------------------------------


def test_snapshot_sees_state_at_begin_not_later_commits(db) -> None:
    txn = db.begin()
    db.commit()  # empty commit just returns; reopen a handle explicitly
    txn = db.transactions.begin()
    with txn_scope(None):
        db.execute("insert into t values (3, 'c')")  # autocommit, after snapshot
    with txn_scope(txn):
        assert rows(db) == [(1, "a"), (2, "b")]
    db.transactions.rollback(txn)
    assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]


def test_own_staged_writes_visible_only_inside(db) -> None:
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("insert into t values (3, 'c')")
        assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]
    # Outside the scope: staged rows invisible.
    assert rows(db) == [(1, "a"), (2, "b")]
    other = db.transactions.begin()
    with txn_scope(other):
        assert rows(db) == [(1, "a"), (2, "b")]
    db.transactions.rollback(other)
    db.transactions.commit(txn)
    assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]


def test_rollback_discards_staged_writes(db) -> None:
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("delete from t where id = 1")
        db.execute("update t set v = 'B' where id = 2")
        assert rows(db) == [(2, "B")]
    db.transactions.rollback(txn)
    assert rows(db) == [(1, "a"), (2, "b")]


def test_two_snapshots_see_distinct_histories(db) -> None:
    old = db.transactions.begin()
    db.execute("update t set v = 'a2' where id = 1")
    new = db.transactions.begin()
    with txn_scope(old):
        assert rows(db) == [(1, "a"), (2, "b")]
    with txn_scope(new):
        assert rows(db) == [(1, "a2"), (2, "b")]
    db.transactions.rollback(old)
    db.transactions.rollback(new)


def test_rows_as_of_tracks_commit_history(db) -> None:
    # rows_as_of is defined for pinned timestamps: pruning keeps only what
    # an active snapshot reads.
    table = db.table("t")
    ts0 = db.transactions.clock
    pins = [db.transactions.begin()]
    try:
        db.execute("insert into t values (3, 'c')")
        ts1 = db.transactions.clock
        pins.append(db.transactions.begin())
        db.execute("update t set v = 'b2' where id = 2")
        assert table.rows_as_of(ts0) == [(1, "a"), (2, "b")]
        assert table.rows_as_of(ts1) == [(1, "a"), (2, "b"), (3, "c")]
        assert table.rows_as_of(db.transactions.clock) is table.rows
    finally:
        for pin in pins:
            db.transactions.rollback(pin)


# -- BEGIN/COMMIT/ROLLBACK through the SQL surface ---------------------------


def test_sql_transaction_statements(db) -> None:
    assert db.execute("begin transaction") == 0
    db.execute("insert into t values (3, 'c')")
    assert db.execute("commit work") == 0
    assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]
    db.execute("begin")
    db.execute("delete from t")
    assert rows(db) == []
    db.execute("rollback")
    assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]


def test_commit_without_begin_raises(db) -> None:
    with pytest.raises(TransactionError):
        db.execute("commit")
    with pytest.raises(TransactionError):
        db.execute("rollback")


def test_nested_begin_raises(db) -> None:
    db.execute("begin")
    try:
        with pytest.raises(TransactionError):
            db.execute("begin")
    finally:
        db.execute("rollback")


def test_ddl_inside_transaction_is_rejected(db) -> None:
    db.execute("begin")
    try:
        with pytest.raises(TransactionError):
            db.execute("create table u (id integer)")
        with pytest.raises(TransactionError):
            db.execute("drop table t")
    finally:
        db.execute("rollback")


# -- first committer wins ----------------------------------------------------


def test_write_write_conflict_aborts_second_committer(db) -> None:
    first = db.transactions.begin()
    second = db.transactions.begin()
    with txn_scope(first):
        db.execute("update t set v = 'first' where id = 1")
    with txn_scope(second):
        db.execute("update t set v = 'second' where id = 1")
    assert db.transactions.commit(first) > 0
    with pytest.raises(WriteConflictError) as excinfo:
        db.transactions.commit(second)
    assert excinfo.value.table == "t"
    assert second.status == "aborted"
    assert db.transactions.stats.conflicts == 1
    assert rows(db) == [(1, "first"), (2, "b")]


def test_conflict_with_autocommit_writer(db) -> None:
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("update t set v = 'staged' where id = 1")
    db.execute("insert into t values (3, 'c')")  # autocommit after the snapshot
    with pytest.raises(WriteConflictError):
        db.transactions.commit(txn)
    assert rows(db) == [(1, "a"), (2, "b"), (3, "c")]


def test_disjoint_tables_do_not_conflict(db) -> None:
    db.execute("create table u (id integer)")
    first = db.transactions.begin()
    second = db.transactions.begin()
    with txn_scope(first):
        db.execute("insert into t values (3, 'c')")
    with txn_scope(second):
        db.execute("insert into u values (9)")
    db.transactions.commit(first)
    db.transactions.commit(second)  # different table: no conflict
    assert rows(db, "select id from u") == [(9,)]


def test_aborted_transaction_is_unusable(db) -> None:
    txn = db.transactions.begin()
    db.transactions.rollback(txn)
    with pytest.raises(TransactionError):
        db.transactions.commit(txn)


# -- staged state never leaks through a cache derived from the rows -----------


def test_staged_rows_never_leak_into_the_posting_index(db) -> None:
    """The posting index follows a staged overlay (its own list object)
    and back: after a rollback the committed rows are served again, and
    a later commit of other rows never sees the staged ones."""
    db.execute("alter table t add column policy text")
    db.execute("update t set policy = 'ok' where id = 1")
    db.functions.register("accepts", lambda mask, policy: policy == "ok")
    table = db.table("t")

    def passing() -> list[int]:
        return db.policy_bitmaps.passing_ids(
            table, "policy", ("1",), db.functions, "accepts"
        )

    assert passing() == [0]
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("update t set policy = 'ok' where id = 2")
        db.execute("update t set policy = 'no' where id = 1")
        assert passing() == [1]
        db.execute("insert into t values (3, 'c', 'ok')")
        assert passing() == [1, 2]
    db.transactions.rollback(txn)
    assert passing() == [0]
    db.execute("insert into t values (4, 'd', 'no')")
    assert passing() == [0]


# -- snapshot identity & enforcement scoping ----------------------------------


def test_snapshot_pins_commit_ts_and_catalog_version(db) -> None:
    # A manager without a catalog (standalone tables) pins version 0.
    assert TransactionManager().snapshot() == Snapshot(ts=0, catalog_version=0)
    manager = db.transactions
    snap = manager.snapshot()
    assert snap == Snapshot(ts=manager.clock, catalog_version=db.catalog.version)
    assert snap.ts > 0 and snap.catalog_version > 0
    txn = manager.begin()
    assert txn.snapshot == snap
    manager.rollback(txn)


def test_snapshot_pins_database_catalog_version(db) -> None:
    before = db.catalog.version
    txn = db.transactions.begin()
    assert txn.snapshot.catalog_version == before
    db.execute("create table extra (id integer)")  # bumps the catalog
    assert db.catalog.version > before
    assert txn.snapshot.catalog_version == before  # still pinned
    db.transactions.rollback(txn)
    fresh = db.transactions.begin()
    assert fresh.snapshot.catalog_version == db.catalog.version
    db.transactions.rollback(fresh)


def test_taxonomy_edit_is_versioned_under_open_snapshot(policy_scenario) -> None:
    """Purpose removal is a versioned catalog commit — an open snapshot
    keeps resolving the taxonomy as of its catalog version."""
    monitor = policy_scenario.monitor
    admin = policy_scenario.admin
    database = policy_scenario.database
    txn = database.transactions.begin()
    with txn_scope(txn):
        before = monitor.execute("select count(*) from sensed_data", "p6").rows
    removed = admin.remove_purpose("p8")
    try:
        with txn_scope(txn):
            pinned = monitor.execute(
                "select count(*) from sensed_data", "p6"
            ).rows
        assert pinned == before
    finally:
        database.transactions.rollback(txn)
        admin.define_purpose(removed)


def test_mask_churn_does_not_doom_snapshots(policy_scenario) -> None:
    """Policy *mask* writes are ordinary row data: snapshot-isolated."""
    from repro.workload.policies import scattered_policy

    monitor = policy_scenario.monitor
    database = policy_scenario.database
    txn = database.transactions.begin()
    with txn_scope(txn):
        before = sorted(
            monitor.execute(
                "select watch_id, beats from sensed_data", "p6"
            ).rows
        )
    policy_scenario.admin.apply_policy(
        scattered_policy("sensed_data", False, 1, 0)  # pass-none everywhere
    )
    with txn_scope(txn):
        pinned = sorted(
            monitor.execute(
                "select watch_id, beats from sensed_data", "p6"
            ).rows
        )
    database.transactions.rollback(txn)
    assert pinned == before  # snapshot still sees its policy masks
    after = sorted(
        monitor.execute("select watch_id, beats from sensed_data", "p6").rows
    )
    assert after == []  # latest readers see the pass-none world


# -- read snapshots, pruning and concurrency ----------------------------------


def test_read_snapshot_is_ephemeral_and_unregisters(db) -> None:
    manager = db.transactions
    with manager.read_snapshot() as txn:
        assert txn.ephemeral is True
        assert manager.active_count() == 1
        assert rows(db) == [(1, "a"), (2, "b")]
    assert manager.active_count() == 0


def test_history_prunes_to_one_list_when_idle(db) -> None:
    table = db.table("t")
    for i in range(10, 30):
        db.execute(f"update t set v = 'v{i}' where id = 1")
    # No active snapshots: each commit keeps only the list it left.
    assert len(table._history) == 1 and table._history[0][1] is table.rows
    snap = db.transactions.begin()
    for i in range(20):
        db.execute(f"update t set v = 'held{i}' where id = 1")
    # One pin: its list and the latest, however many commits landed since.
    assert len(table._history) == 2
    db.transactions.rollback(snap)
    db.execute("update t set v = 'done' where id = 1")
    assert len(table._history) == 1 and table._history[0][1] is table.rows


def test_long_pin_holds_one_list_across_one_row_commits() -> None:
    database = Database("long-pin")
    database.execute("create table w (id integer primary key, v integer)")
    database.table("w").append_rows((i, 0) for i in range(10_000))
    table = database.table("w")
    pin = database.transactions.begin()
    with txn_scope(pin):
        pinned = list(table.rows)
    try:
        for step in range(300):
            database.execute(f"update w set v = {step + 1} where id = {step}")
            assert len(table._history) <= 2
        with txn_scope(pin):
            seen = table.rows
        assert len(seen) == len(pinned)
        assert all(a is b for a, b in zip(seen, pinned))
        assert table.rows[299] == (299, 300)
    finally:
        database.transactions.rollback(pin)
    database.execute("update w set v = -1 where id = 0")
    assert len(table._history) == 1


def test_concurrent_writers_one_wins_per_table(db) -> None:
    manager = db.transactions
    outcomes: list[str] = []
    barrier = threading.Barrier(4)
    lock = threading.Lock()

    def contend(i: int) -> None:
        txn = manager.begin()
        with txn_scope(txn):
            db.execute(f"update t set v = 'w{i}' where id = 1")
        barrier.wait()
        try:
            manager.commit(txn)
            result = "committed"
        except WriteConflictError:
            result = "conflict"
        with lock:
            outcomes.append(result)

    threads = [threading.Thread(target=contend, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("committed") == 1
    assert outcomes.count("conflict") == 3
    assert rows(db)[0][1].startswith("w")


def test_schema_change_is_versioned_not_barriered(db) -> None:
    """ALTER TABLE commits rows and schema at one timestamp: a snapshot
    pinned before it sees the old-width rows under the old schema."""
    table = db.table("t")
    db.execute("insert into t values (3, 'c')")
    pinned = db.transactions.begin()
    db.execute("alter table t add column extra integer")
    try:
        with txn_scope(pinned):
            assert table.schema.column_names == ("id", "v")
            assert all(len(row) == 2 for row in table.rows)
        assert table.schema.column_names == ("id", "v", "extra")
        assert all(len(row) == 3 for row in table.rows)
    finally:
        db.transactions.rollback(pinned)


# -- transactional DDL (PR 10) ------------------------------------------------


def test_transactional_alter_visible_only_after_commit(db) -> None:
    table = db.table("t")
    db.execute("begin")
    db.execute("alter table t add column extra integer")
    db.execute("insert into t values (3, 'c', 9)")
    assert table.schema.column_names == ("id", "v", "extra")  # staged view
    with txn_scope(None):
        assert table.schema.column_names == ("id", "v")  # outside: unchanged
    db.execute("commit")
    assert table.schema.column_names == ("id", "v", "extra")
    assert rows(db, "select id, extra from t order by id") == [
        (1, None),
        (2, None),
        (3, 9),
    ]


def test_transactional_alter_rolls_back_cleanly(db) -> None:
    table = db.table("t")
    db.execute("begin")
    db.execute("alter table t drop column v")
    assert table.schema.column_names == ("id",)
    db.execute("rollback")
    assert table.schema.column_names == ("id", "v")
    assert rows(db) == [(1, "a"), (2, "b")]


def test_concurrent_schema_changes_conflict_on_catalog_entry(db) -> None:
    from repro.errors import CatalogConflictError

    first = db.transactions.begin()
    second = db.transactions.begin()
    with txn_scope(first):
        db.execute("alter table t add column x integer")
    with txn_scope(second):
        db.execute("alter table t add column y integer")
    db.transactions.commit(first)
    with pytest.raises(CatalogConflictError) as excinfo:
        db.transactions.commit(second)
    assert excinfo.value.kind == "schema"
    assert excinfo.value.key == "t"
    assert db.transactions.stats.catalog_conflicts == 1
    assert db.table("t").schema.column_names == ("id", "v", "x")


def test_transactional_create_index_stages_until_commit(db) -> None:
    db.execute("begin")
    db.execute("create index i_t on t (id)")
    assert db.indexes.find("i_t") is None  # not registered while staged
    db.execute("commit")
    assert db.indexes.find("i_t") is not None
    assert db.indexes.lookup_equal("i_t", 2) == [1]


def test_transactional_create_index_rolls_back(db) -> None:
    db.execute("begin")
    db.execute("create index i_t on t (id)")
    db.execute("rollback")
    assert db.indexes.find("i_t") is None
    # The name is free again.
    db.execute("create index i_t on t (id)")
    assert db.indexes.find("i_t") is not None


def test_concurrent_create_index_same_name_conflicts(db) -> None:
    from repro.errors import CatalogConflictError

    first = db.transactions.begin()
    second = db.transactions.begin()
    with txn_scope(first):
        db.execute("create index i_t on t (id)")
    with txn_scope(second):
        db.execute("create index i_t on t (v)")
    db.transactions.commit(first)
    with pytest.raises(CatalogConflictError):
        db.transactions.commit(second)
    assert db.indexes.get("i_t").columns == ("id",)


def test_transactional_drop_index(db) -> None:
    db.execute("create index i_t on t (id)")
    db.execute("begin")
    db.execute("drop index i_t")
    assert db.indexes.find("i_t") is not None  # still visible until commit
    db.execute("commit")
    assert db.indexes.find("i_t") is None


def test_index_created_after_snapshot_is_invisible_to_it(db) -> None:
    """Index definitions resolve as of the pinned catalog version: DDL
    committed after a snapshot began must not change its access paths."""
    txn = db.transactions.begin()
    db.execute("create index i_t on t (id)")  # autocommit, later version
    assert db.indexes.find("i_t") is not None
    with txn_scope(txn):
        assert db.indexes.find("i_t") is None
        assert db.indexes.for_table("t") == []
    db.transactions.rollback(txn)


def test_index_dropped_after_snapshot_is_resurrected_for_it(db) -> None:
    db.execute("create index i_t on t (id)")
    txn = db.transactions.begin()
    db.execute("drop index i_t")
    assert db.indexes.find("i_t") is None
    with txn_scope(txn):
        definition = db.indexes.find("i_t")
        assert definition is not None and definition.columns == ("id",)
        # Probes still work, against the snapshot's rows.
        assert db.indexes.lookup_equal("i_t", 2) == [1]
    db.transactions.rollback(txn)


def test_index_recreated_with_new_columns_keeps_snapshots_apart(db) -> None:
    """Drop + recreate under one name: a pinned snapshot keeps the old
    definition (and its structure); fresh readers get the new one."""
    db.execute("create index i_t on t (id)")
    txn = db.transactions.begin()
    db.execute("drop index i_t")
    db.execute("create index i_t on t (v)")
    with txn_scope(txn):
        assert db.indexes.get("i_t").columns == ("id",)
        assert db.indexes.lookup_equal("i_t", 2) == [1]
    assert db.indexes.get("i_t").columns == ("v",)
    assert db.indexes.lookup_equal("i_t", "b") == [1]
    db.transactions.rollback(txn)


def test_dml_conflicts_with_concurrent_alter(db) -> None:
    """A schema change writes "all rows": any concurrent DML on the table
    must abort, whichever rows it touched."""
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("update t set v = 'staged' where id = 1")
    db.execute("alter table t add column extra integer")
    with pytest.raises(WriteConflictError):
        db.transactions.commit(txn)


# -- row-level first-committer-wins (PR 10 satellite) --------------------------


@pytest.fixture()
def pkdb():
    """A table *with* a primary key: eligible for row-granularity conflicts."""
    database = Database("mvcc-row")
    database.execute("create table r (id integer primary key, v text)")
    database.execute("insert into r values (1, 'a'), (2, 'b'), (3, 'c')")
    return database


def rrows(database, sql="select id, v from r order by id"):
    return list(database.execute(sql).rows)


def test_disjoint_row_writers_both_commit(pkdb) -> None:
    first = pkdb.transactions.begin()
    second = pkdb.transactions.begin()
    with txn_scope(first):
        pkdb.execute("update r set v = 'x' where id = 1")
    with txn_scope(second):
        pkdb.execute("update r set v = 'y' where id = 2")
    pkdb.transactions.commit(first)
    pkdb.transactions.commit(second)  # rebased over the first commit
    assert pkdb.transactions.stats.conflicts == 0
    assert pkdb.transactions.stats.rebased == 1
    assert rrows(pkdb) == [(1, "x"), (2, "y"), (3, "c")]


def test_same_row_writers_still_conflict(pkdb) -> None:
    first = pkdb.transactions.begin()
    second = pkdb.transactions.begin()
    with txn_scope(first):
        pkdb.execute("update r set v = 'x' where id = 2")
    with txn_scope(second):
        pkdb.execute("update r set v = 'y' where id = 2")
    pkdb.transactions.commit(first)
    with pytest.raises(WriteConflictError) as excinfo:
        pkdb.transactions.commit(second)
    assert excinfo.value.table == "r"
    assert pkdb.transactions.stats.conflicts == 1
    assert rrows(pkdb) == [(1, "a"), (2, "x"), (3, "c")]


def test_delete_vs_update_same_row_conflicts(pkdb) -> None:
    deleter = pkdb.transactions.begin()
    updater = pkdb.transactions.begin()
    with txn_scope(deleter):
        pkdb.execute("delete from r where id = 2")
    with txn_scope(updater):
        pkdb.execute("update r set v = 'u' where id = 2")
    pkdb.transactions.commit(deleter)
    with pytest.raises(WriteConflictError):
        pkdb.transactions.commit(updater)
    assert rrows(pkdb) == [(1, "a"), (3, "c")]


def test_concurrent_inserts_distinct_keys_both_commit(pkdb) -> None:
    first = pkdb.transactions.begin()
    second = pkdb.transactions.begin()
    with txn_scope(first):
        pkdb.execute("insert into r values (10, 'x')")
    with txn_scope(second):
        pkdb.execute("insert into r values (11, 'y')")
    pkdb.transactions.commit(first)
    pkdb.transactions.commit(second)
    assert rrows(pkdb)[-2:] == [(10, "x"), (11, "y")]


def test_concurrent_inserts_same_key_conflict(pkdb) -> None:
    first = pkdb.transactions.begin()
    second = pkdb.transactions.begin()
    with txn_scope(first):
        pkdb.execute("insert into r values (10, 'x')")
    with txn_scope(second):
        pkdb.execute("insert into r values (10, 'y')")
    pkdb.transactions.commit(first)
    with pytest.raises(WriteConflictError):
        pkdb.transactions.commit(second)
    assert rrows(pkdb) == [(1, "a"), (2, "b"), (3, "c"), (10, "x")]


def test_rebase_preserves_concurrent_committed_insert(pkdb) -> None:
    """The rebase merge must not lose rows committed after the snapshot."""
    txn = pkdb.transactions.begin()
    with txn_scope(txn):
        pkdb.execute("update r set v = 'mine' where id = 1")
    pkdb.execute("insert into r values (4, 'd')")  # concurrent autocommit
    pkdb.transactions.commit(txn)
    assert pkdb.transactions.stats.rebased == 1
    assert rrows(pkdb) == [(1, "mine"), (2, "b"), (3, "c"), (4, "d")]


def test_four_disjoint_writers_all_commit(pkdb) -> None:
    pkdb.execute("insert into r values (4, 'd')")
    manager = pkdb.transactions
    outcomes: list[str] = []
    barrier = threading.Barrier(4)
    lock = threading.Lock()

    def contend(i: int) -> None:
        txn = manager.begin()
        with txn_scope(txn):
            pkdb.execute(f"update r set v = 'w{i}' where id = {i}")
        barrier.wait()
        try:
            manager.commit(txn)
            result = "committed"
        except WriteConflictError:
            result = "conflict"
        with lock:
            outcomes.append(result)

    threads = [
        threading.Thread(target=contend, args=(i,)) for i in (1, 2, 3, 4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert outcomes.count("committed") == 4, outcomes
    assert rrows(pkdb) == [(1, "w1"), (2, "w2"), (3, "w3"), (4, "w4")]


def test_no_primary_key_falls_back_to_table_granularity(db) -> None:
    first = db.transactions.begin()
    second = db.transactions.begin()
    with txn_scope(first):
        db.execute("update t set v = 'x' where id = 1")
    with txn_scope(second):
        db.execute("update t set v = 'y' where id = 2")
    db.transactions.commit(first)
    with pytest.raises(WriteConflictError):
        db.transactions.commit(second)


# -- row-delta commits: a commit costs what it changes -------------------------


def test_row_delta_reproduces_any_list() -> None:
    """Applying ``row_delta(old, new)`` to ``old`` yields ``new`` — the very
    same tuple objects in the same order — for statement-shaped edits
    (in-place updates, deletes, appends, in any mix) and for arbitrary
    lists (reorders degrade to deletes plus inserts)."""
    import random

    from repro.engine.mvcc import row_delta
    from repro.engine.table import Table
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import SqlType

    def applied(old, delta):
        table = Table(TableSchema("x", [Column("a", SqlType.INTEGER)]))
        table.apply_committed_append(list(old), 1)
        table.apply_committed_delta(*delta, 2)
        return table.rows

    rng = random.Random(21)
    for case in range(300):
        old = [(i,) for i in range(rng.randrange(0, 12))]
        new = list(old)
        for _ in range(rng.randrange(0, 6)):
            roll = rng.random()
            if roll < 0.4 and new:
                new[rng.randrange(len(new))] = (rng.randrange(100, 200),)
            elif roll < 0.7 and new:
                del new[rng.randrange(len(new))]
            elif roll < 0.9:
                new.append((rng.randrange(200, 300),))
            else:
                rng.shuffle(new)
        updates, deletes, inserts = delta = row_delta(old, new)
        result = applied(old, delta)
        assert len(result) == len(new), case
        assert all(a is b for a, b in zip(result, new)), case
        assert [p for p, _ in updates] == sorted(p for p, _ in updates)
        assert deletes == sorted(deletes)
        assert not {p for p, _ in updates} & set(deletes)


def test_row_delta_names_only_the_written_rows() -> None:
    from repro.engine.mvcc import row_delta

    old = [(i, "v") for i in range(50)]
    new = list(old)
    new[7] = (7, "x")
    del new[20]
    new.append((99, "n"))
    assert row_delta(old, new) == ([(7, (7, "x"))], [20], [(99, "n")])
    # A delete followed by as many inserts is not "every later row updated".
    shifted = old[1:] + [(100, "n")]
    assert row_delta(old, shifted) == ([], [0], [(100, "n")])
    assert row_delta(old, []) == ([], list(range(50)), [])
    assert row_delta([], old) == ([], [], old)


def test_one_row_update_writes_one_key_and_keeps_one_list(pkdb) -> None:
    table = pkdb.table("r")
    before = table.rows
    untouched = [table.rows[0], table.rows[2]]
    reader = pkdb.transactions.begin()  # pins the pre-commit list
    pkdb.begin()
    pkdb.execute("update r set v = 'x' where id = 2")
    pkdb.commit()
    assert table._write_log[-1][1] == frozenset({(2,)})
    assert [table.rows[0], table.rows[2]] == untouched
    assert table.rows[0] is untouched[0] and table.rows[2] is untouched[1]
    # The pinned reader reads the pre-commit list object itself.
    with txn_scope(reader):
        assert table.rows is before
    assert [entry[1] for entry in table._history] == [before, table.rows]
    pkdb.transactions.rollback(reader)
    pkdb.execute("update r set v = 'y' where id = 3")  # commits prune
    assert len(table._history) == 1


def test_key_changing_update_conflicts_on_old_and_new_key(pkdb) -> None:
    for rival_sql in (
        "update r set v = 'rival' where id = 2",  # the key it moved away from
        "insert into r values (20, 'rival')",  # the key it moved to
    ):
        mover = pkdb.transactions.begin()
        with txn_scope(mover):
            pkdb.execute("update r set id = 20 where id = 2")
        rival = pkdb.transactions.begin()
        with txn_scope(rival):
            pkdb.execute(rival_sql)
        pkdb.transactions.commit(rival)
        with pytest.raises(WriteConflictError):
            pkdb.transactions.commit(mover)
        pkdb.execute("delete from r where id = 20")


def test_duplicate_key_conflicts_never_rebases(pkdb) -> None:
    pkdb.execute("insert into r values (1, 'twin')")  # the key is not enforced
    first = pkdb.transactions.begin()
    second = pkdb.transactions.begin()
    with txn_scope(first):
        pkdb.execute("update r set v = 'x' where id = 2")
    with txn_scope(second):
        pkdb.execute("update r set v = 'y' where id = 3")
    pkdb.transactions.commit(first)  # nothing concurrent: commits its delta
    with pytest.raises(WriteConflictError):
        pkdb.transactions.commit(second)
    assert pkdb.transactions.stats.rebased == 0


def test_commit_walks_keys_only_when_it_must_rebase(pkdb, monkeypatch) -> None:
    """The no-conflict path of a transactional and of an autocommit write
    looks at the changed rows' keys only; the per-table key walk belongs to
    the rebase of a concurrent disjoint writer."""
    from repro.engine import mvcc

    walks: list[str] = []
    for name in ("_unique_keys", "_rebase"):
        original = getattr(mvcc, name)

        def counted(*args, _name=name, _original=original):
            walks.append(_name)
            return _original(*args)

        monkeypatch.setattr(mvcc, name, counted)
    pkdb.execute("update r set v = 'auto' where id = 1")
    pkdb.begin()
    pkdb.execute("update r set v = 'txn' where id = 2")
    pkdb.execute("delete from r where id = 3")
    pkdb.commit()
    assert walks == []
    loser_free = pkdb.transactions.begin()
    with txn_scope(loser_free):
        pkdb.execute("update r set v = 'late' where id = 1")
    pkdb.execute("insert into r values (9, 'z')")
    pkdb.transactions.commit(loser_free)
    assert walks == ["_unique_keys", "_unique_keys", "_rebase"]
    assert rrows(pkdb) == [(1, "late"), (2, "txn"), (9, "z")]


def test_pinned_snapshots_read_identical_rows_across_delta_commits() -> None:
    """Snapshots pinned at different moments of a run of delta commits
    (updates, key changes, deletes, inserts, multi-statement transactions)
    each keep reading the rows — same tuples, same order — they read when
    they were pinned, and indexes probed under them agree."""
    import random

    database = Database("pinned")
    database.execute("create table m (id integer primary key, v integer)")
    database.table("m").append_rows((i, 0) for i in range(60))
    database.execute("create index i_m on m (id)")
    table = database.table("m")
    rng = random.Random(5)
    pins: list = []
    next_id = 1000
    try:
        for step in range(120):
            if step % 15 == 0:
                txn = database.transactions.begin()
                with txn_scope(txn):
                    pins.append((txn, list(table.rows)))
            ids = [row[0] for row in table.rows]
            roll = rng.random()
            if roll < 0.4:
                database.execute(
                    f"update m set v = {step} where id = {rng.choice(ids)}"
                )
            elif roll < 0.55:
                database.execute(f"delete from m where id = {rng.choice(ids)}")
            elif roll < 0.7:
                database.execute(f"insert into m values ({next_id}, {step})")
                next_id += 1
            elif roll < 0.8:
                database.execute(
                    f"update m set id = {next_id} where id = {rng.choice(ids)}"
                )
                next_id += 1
            else:
                database.begin()
                database.execute(f"insert into m values ({next_id}, {step})")
                database.execute(f"update m set v = -1 where id = {next_id}")
                database.execute(f"delete from m where id = {rng.choice(ids)}")
                database.execute(f"update m set v = {step} where v = 0 and id < 5")
                database.commit()
                next_id += 1
            for txn, copy in pins:
                with txn_scope(txn):
                    seen = table.rows
                    assert len(seen) == len(copy)
                    assert all(a is b for a, b in zip(seen, copy)), step
                    probe = rng.choice(copy)
                    position = database.indexes.lookup_equal("i_m", probe[0])
                    assert [seen[p] for p in position] == [probe]
    finally:
        for txn, _ in pins:
            database.transactions.rollback(txn)
    # Nothing pinned any more: the next commit leaves one list.
    database.execute(f"insert into m values ({next_id}, 0)")
    assert len(table._history) == 1


def test_append_only_autocommit_never_copies_the_row_list(db) -> None:
    """Finding 11: every audited read autocommits an insert into the audit
    table; with nothing pinned each append extends the one latest list in
    place and the commit's prune leaves one history entry."""
    table = db.table("t")
    rows = table.rows
    for i in range(10, 60):
        db.execute(f"insert into t values ({i}, 'audit')")
        assert len(table._history) == 1
    assert table.rows is rows and len(rows) == 52
    assert table._history == [[db.transactions.clock, rows, 52]]
