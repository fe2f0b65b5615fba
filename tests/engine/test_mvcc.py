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


# -- metadata history is the catalog's -----------------------------------------


def test_three_pins_around_two_alters_each_read_their_own_schema(db) -> None:
    table = db.table("t")
    first = db.transactions.begin()
    db.execute("alter table t add column x integer")
    second = db.transactions.begin()
    db.execute("alter table t drop column v")
    third = db.transactions.begin()
    try:
        for pin, columns, width in (
            (first, ("id", "v"), 2),
            (second, ("id", "v", "x"), 3),
            (third, ("id", "x"), 2),
        ):
            with txn_scope(pin):
                assert table.schema.column_names == columns
                assert {len(row) for row in table.rows} == {width}
                assert rows(db, "select * from t order by id")[0][0] == 1
    finally:
        for pin in (first, second, third):
            db.transactions.rollback(pin)
    assert table.schema.column_names == ("id", "x")


def test_recreated_table_never_reads_the_dropped_tables_schema(db) -> None:
    """The catalog keeps the dropped ``u``'s ALTER next to the new ``u``'s
    entries: a reader pinned before the new table's ALTER resolves to the
    new CREATE's columns, as does one pinned before the new table existed."""
    db.execute("create table u (a integer, b integer)")
    db.execute("alter table u add column c integer")
    before_drop = db.transactions.begin()
    db.execute("drop table u")
    db.execute("create table u (x text, y text)")
    before_alter = db.transactions.begin()
    db.execute("alter table u add column z text")
    table = db.table("u")
    try:
        for pin in (before_drop, before_alter):
            with txn_scope(pin):
                assert table.schema.column_names == ("x", "y")
        assert table.schema.column_names == ("x", "y", "z")
    finally:
        db.transactions.rollback(before_drop)
        db.transactions.rollback(before_alter)


def test_catalog_history_prunes_to_one_entry_per_slot(db) -> None:
    db.execute("create index i_t on t (id)")
    pins = [db.transactions.begin()]
    db.execute("alter table t add column x integer")
    pins.append(db.transactions.begin())
    db.execute("drop index i_t")
    db.execute("create index i_t on t (v)")
    pins.append(db.transactions.begin())
    db.execute("alter table t drop column x")
    assert db.catalog.stats()["entries"] > db.catalog.stats()["slots"]
    for pin in pins:
        db.transactions.rollback(pin)
    stats = db.catalog.stats()
    assert stats["entries"] == stats["slots"]
    assert db.table("t").schema.column_names == ("id", "v")
    assert db.indexes.get("i_t").columns == ("v",)


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


@pytest.fixture()
def compositedb():
    """A table keyed by two columns: write sets hold ``(k1, k2)`` pairs."""
    from repro.engine.schema import Column, TableSchema
    from repro.engine.types import SqlType

    database = Database("mvcc-composite")
    database.create_table(
        TableSchema(
            "c",
            [
                Column("k1", SqlType.INTEGER, primary_key=True),
                Column("k2", SqlType.TEXT, primary_key=True),
                Column("v", SqlType.TEXT),
            ],
        )
    )
    database.execute(
        "insert into c values (1, 'a', 'x'), (1, 'b', 'x'), (2, 'a', 'x')"
    )
    return database


def test_composite_key_disjoint_writers_rebase(compositedb) -> None:
    first = compositedb.transactions.begin()
    second = compositedb.transactions.begin()
    with txn_scope(first):
        compositedb.execute("update c set v = 'f' where k1 = 1 and k2 = 'a'")
    with txn_scope(second):
        compositedb.execute("update c set v = 's' where k1 = 1 and k2 = 'b'")
        compositedb.execute("delete from c where k1 = 2")
    compositedb.transactions.commit(first)
    compositedb.transactions.commit(second)
    assert compositedb.transactions.stats.rebased == 1
    assert sorted(compositedb.execute("select * from c").rows) == [
        (1, "a", "f"), (1, "b", "s"),
    ]


def test_composite_key_overlapping_writers_conflict(compositedb) -> None:
    first = compositedb.transactions.begin()
    second = compositedb.transactions.begin()
    with txn_scope(first):
        compositedb.execute("update c set v = 'f' where k1 = 1 and k2 = 'b'")
    with txn_scope(second):
        compositedb.execute("update c set v = 's' where k1 = 1")
    compositedb.transactions.commit(first)
    with pytest.raises(WriteConflictError):
        compositedb.transactions.commit(second)
    assert compositedb.transactions.stats.rebased == 0


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


@pytest.mark.parametrize("method", ["update", "delete"])
def test_a_write_keeps_a_row_committed_between_its_read_and_its_commit(method) -> None:
    """A write commits the positions it chose, addressed to the list it
    read: a row appended meanwhile — here by the predicate's own first
    call — survives it instead of being diffed away."""
    database = Database("lost-update")
    database.execute("create table u (k integer primary key, v text)")
    database.execute("insert into u values (1, 'a'), (2, 'b')")
    table = database.table("u")
    calls = []

    def predicate(row):
        if not calls:
            database.execute("insert into u values (3, 'c')")
        calls.append(row)
        return row[0] == 1

    if method == "update":
        assert table.update_rows(predicate, lambda row: (row[0], "A")) == 1
        assert table.rows == [(1, "A"), (2, "b"), (3, "c")]
    else:
        assert table.delete_rows(predicate) == 1
        assert table.rows == [(2, "b"), (3, "c")]


def test_the_rows_setter_replaces_every_row() -> None:
    """``Table.rows = …`` is a replacement: any iterable, inside or outside
    a transaction, with the keys before and after as its write set."""
    database = Database("replace")
    database.execute("create table u (k integer primary key, v text)")
    database.execute("insert into u values (1, 'a'), (2, 'b')")
    table = database.table("u")
    pin = database.transactions.begin()  # keeps the write log unpruned
    table.rows = ((k, "g") for k in (2, 3))
    assert table.rows == [(2, "g"), (3, "g")]
    assert table._write_log[-1][1] == frozenset({(1,), (2,), (3,)})
    database.begin()
    table.rows = ((k, "h") for k in (4,))
    assert table.rows == [(4, "h")]
    database.commit()
    assert table.rows == [(4, "h")]
    database.transactions.rollback(pin)


#: The tables composed transactions run on: keyed (with an index, so a
#: transaction's first statement writes the positions a probe found),
#: key-less, and keyed with every key stored twice.
COMPOSED_TABLES = {
    "k": ("create table k (id integer primary key, v text)", 1),
    "n": ("create table n (id integer, v text)", 1),
    "d": ("create table d (id integer primary key, v text)", 2),
}


def _composed_statement(rng, table, visible, fresh) -> str:
    """One UPDATE, DELETE or INSERT over the rows the transaction reads —
    its own inserts among them."""
    ids = sorted({row[0] for row in visible})
    roll = rng.random()
    if roll < 0.3 or not ids:
        new = rng.choice(ids) if table == "d" and ids and rng.random() < 0.3 else next(fresh)
        return f"insert into {table} values ({new}, 'i{new}')"
    target = rng.choice(ids)
    if rng.random() < 0.8:
        where = f"id = {target}"
    else:
        where = f"id >= {target} and id < {target + 3}"
    if roll < 0.65:
        if where.startswith("id =") and rng.random() < 0.2:
            return f"update {table} set id = {next(fresh)} where {where}"
        return f"update {table} set v = 'u{next(fresh)}' where {where}"
    return f"delete from {table} where {where}"


@pytest.mark.parametrize("table", list(COMPOSED_TABLES))
def test_composed_transactions_commit_replay_and_rebase_what_they_read(
    tmp_path, table
) -> None:
    """Random transactions of 1-6 UPDATE/DELETE/INSERT statements — writes
    to rows the transaction inserted, statements after a delete — fold into
    one delta over the snapshot's rows.  What the transaction reads is what
    the same statements leave when each autocommits on a twin of the
    snapshot; after COMMIT the committed list is the one the transaction
    last read; the logged record replays to the same rows; and on the
    keyed table a disjoint concurrent commit rebases into both writes."""
    import itertools
    import random
    import re

    from repro.engine.wal import open_database

    ddl, copies = COMPOSED_TABLES[table]
    db, durability = open_database(tmp_path, sync=False)
    db.execute(ddl)
    if table == "k":
        db.execute("create index i_composed on k (id)")
    db.table(table).append_rows(
        (i, f"v{i}") for i in range(12) for _ in range(copies)
    )
    rng = random.Random(f"composed-{table}")
    fresh = itertools.count(100)
    after_delete = own_insert_written = rebased = 0
    for case in range(150):
        txn = db.transactions.begin()
        base = db.table(table).rows_as_of(txn.snapshot.ts)
        twin = Database("twin")
        twin.execute(ddl)
        twin.table(table).append_rows(base)
        inserted: set = set()
        deleted = False
        with txn_scope(txn):
            for _ in range(rng.randint(1, 6)):
                sql = _composed_statement(rng, table, db.table(table).rows, fresh)
                after_delete += deleted
                deleted = deleted or sql.startswith("delete")
                if sql.startswith("insert"):
                    inserted.add(int(sql.split("(")[1].split(",")[0]))
                elif any(re.search(rf"where id >?= {i}\b", sql) for i in inserted):
                    own_insert_written += 1
                db.execute(sql)
                twin.execute(sql)
            seen = list(db.table(table).rows)
        assert seen == twin.table(table).rows, case
        # A row updated and then deleted is only a delete in the record.
        updates, deletes, _ = txn.staged(db.table(table)).delta()
        assert not {position for position, _ in updates} & set(deletes), case
        theirs = None
        if table == "k" and case % 2:
            base_ids = set(map(id, base))
            seen_ids = set(map(id, seen))
            written = {r[0] for r in base if id(r) not in seen_ids}
            written |= {r[0] for r in seen if id(r) not in base_ids}
            untouched = sorted({r[0] for r in base} - written)
            if untouched:
                theirs, new = rng.choice(untouched), next(fresh)
                with txn_scope(None):
                    db.execute(f"update k set v = 'theirs' where id = {theirs}")
                    db.execute(f"insert into k values ({new}, 'theirs')")
        before = db.transactions.stats.rebased
        db.transactions.commit(txn)
        rebased += db.transactions.stats.rebased - before
        committed = list(db.table(table).rows)
        if theirs is None:
            assert committed == seen, case
        else:
            assert sorted(committed) == sorted(
                [(i, "theirs" if i == theirs else v) for i, v in seen]
                + [(new, "theirs")]
            ), case
        durability.close()
        db, durability = open_database(tmp_path, sync=False)
        assert list(db.table(table).rows) == committed, case
    durability.close()
    assert after_delete and own_insert_written
    assert bool(rebased) == (table == "k")


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


def test_an_append_never_grows_a_list_a_pinned_reader_holds() -> None:
    """A list taken under a pin keeps the length the snapshot saw: an
    append committed while a reader that took the latest list is pinned
    goes into a new list instead of extending that one.  A pin that never
    read the table (an audited read appending to ``al``) copies nothing."""
    database = Database("held")
    database.execute("create table t (id integer, v text)")
    database.execute("create table other (id integer)")
    database.execute("insert into t values (1, 'a')")
    table = database.table("t")
    with database.transactions.read_snapshot():
        database.execute("select id from other")
        latest = table.latest_rows()
        with txn_scope(None):
            database.execute("insert into t values (0, 'unread')")
        assert table.latest_rows() is latest
    database.execute("delete from t where id = 0")
    with database.transactions.read_snapshot():
        held = table.rows
        with txn_scope(None):
            database.execute("insert into t values (2, 'b')")
        assert (len(held), len(table.rows)) == (1, 1)
    assert len(table.rows) == 2 and held == [(1, "a")]
    # Nothing pinned: the next append extends the latest list again.
    latest = table.rows
    database.execute("insert into t values (3, 'c')")
    assert table.rows is latest and len(table._history) == 1


def test_pinned_join_over_the_audit_table_while_another_thread_audits() -> None:
    """Every audited statement appends to ``al``; a pinned reader joining
    ``al`` with itself must count the rows its snapshot saw, however many
    audit rows other threads commit while it scans."""
    import sys

    from repro.core.audit import AuditLog

    database = Database("audited")
    audit = AuditLog(database)
    for _ in range(50):
        audit.record("u", "p", "q", "select 1", "allowed")
    stop = threading.Event()
    errors: list[BaseException] = []

    def auditor() -> None:
        try:
            while not stop.is_set():
                with txn_scope(None):
                    audit.record("u", "p", "q", "select 1", "allowed")
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=auditor)
    try:
        with database.transactions.read_snapshot():
            held = database.table("al").rows
            seen = len(held)
            thread.start()
            for _ in range(20):
                (count,) = database.execute(
                    "select count(*) from al a join al b on a.seq = b.seq"
                ).rows[0]
                assert count == seen
            assert len(held) == seen
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert errors == [] and len(audit) > seen
    assert len(database.table("al").rows) == len(audit)
