"""Crash recovery: the WAL's committed-prefix guarantee under injected faults.

The harness drives a durable database through a seeded workload of
autocommit and multi-statement transactional commits, kills it at an
injected :class:`~repro.errors.InjectedFailure` sync point inside the
commit protocol, reopens the directory with
:func:`repro.engine.wal.open_database`, and asserts the recovered state is
**exactly the committed prefix**:

* ``wal.before_append`` / ``wal.partial_append`` — the dying commit never
  became durable and must be absent after recovery (a torn half-frame must
  be discarded, never half-applied);
* ``wal.before_sync`` / ``wal.after_sync`` — the record reached the log
  file, so recovery replays it (an unacknowledged commit may survive; an
  acknowledged one always does).

Audit rows are non-durable commits: their frames reach the file unsynced
and ride the next fsync, so a crash at any of those points of the data
commit that follows them still recovers every audit row written before it.

The same contract is checked for **delta commits** — the records an
UPDATE/DELETE logs, holding only the written rows addressed by position —
on a keyed table, a table without a primary key and one with duplicate
keys, where "exactly the committed prefix" also means *the same rows in the
same order* (positions replay onto nothing else).

A reload of the checkpoint image and a recovery must each equal the live
database after random DDL and DML histories — rows, schemas, indexes,
catalog version and clock — and, after random access-control histories,
serve the same authorizations, user checks and audit trail to a fresh
:class:`~repro.core.roles.RoleManager` and
:class:`~repro.core.audit.AuditLog`, which read only their meta-tables.

``REPRO_CRASH_SEED`` rotates the randomized campaigns' seed — the CI
crash-recovery matrix replays this module under 20 different values.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import sys
import threading
import zlib
from pathlib import Path

import pytest

from repro.core import (
    AccessControlManager,
    ActionType,
    EnforcementMonitor,
    JointAccess,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
    RoleManager,
    Session,
)
from repro.core.audit import AuditLog
from repro.engine import persist, txn_scope
from repro.engine.database import Database
from repro.engine.index import IndexDefinition
from repro.engine.wal import (
    CHECKPOINT,
    COMMIT,
    PENDING_LIMIT,
    WriteAheadLog,
    open_database,
)
from repro.errors import (
    ConfigurationError,
    InjectedFailure,
    UnauthorizedPurposeError,
    WriteConflictError,
)

#: Rotated by the CI crash matrix; any int works locally.
CRASH_SEED = int(os.environ.get("REPRO_CRASH_SEED", "2015"))

#: Crash points and whether the dying commit must survive recovery.
FAILPOINT_SURVIVES = {
    "wal.before_append": False,
    "wal.partial_append": False,
    "wal.before_sync": True,
    "wal.after_sync": True,
}


def durable_db(directory):
    """Open (or re-open) the harness database under ``directory``."""
    db, durability = open_database(directory)
    if "t" not in db.tables:
        db.execute("create table t (id integer, v text)")
    return db, durability


def table_rows(db):
    return sorted(db.table("t").rows)


def catalog_state(db):
    """The index definitions and table schemas a transaction sees."""
    txn = db.transactions.begin()
    try:
        with txn_scope(txn):
            return db.indexes.definitions(), {
                name: tuple(table.schema.columns)
                for name, table in db.tables.items()
            }
    finally:
        db.transactions.rollback(txn)


def apply_step(db, step: int, rng: random.Random) -> None:
    """One committed unit of work: autocommit or a small transaction."""
    if rng.random() < 0.4:
        db.execute("begin")
        db.execute(f"insert into t values ({step}, 'i{step}')")
        db.execute(f"update t set v = 'u{step}' where id = {step}")
        db.execute("commit")
    else:
        db.execute(f"insert into t values ({step}, 'a{step}')")


# -- plain durability ---------------------------------------------------------


def test_fresh_directory_starts_empty(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    assert table_rows(db) == []
    assert durability.recovered_commits == 0
    assert durability.torn_bytes == 0


def test_commits_survive_reopen(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    rng = random.Random(1)
    for step in range(8):
        apply_step(db, step, rng)
    expected = table_rows(db)
    durability.close()

    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == expected
    # 8 workload commits + the CREATE TABLE DDL record (DESIGN.md §15).
    assert redo.recovered_commits == 9
    assert redo.torn_bytes == 0


def test_audit_sequence_continues_on_a_reopened_database(tmp_path) -> None:
    db, durability = open_database(tmp_path)
    audit = AuditLog(db)
    for step in range(3):
        audit.record("u", "p", f"q{step}", "select 1", "allowed")
    durability.close()

    reopened, durability = open_database(tmp_path)
    AuditLog(reopened).record("u", "p", "q3", "select 1", "allowed")
    durability.close()
    assert sorted(reopened.table("al").column_values("seq")) == [1, 2, 3, 4]


def test_replayed_delta_commits_keep_one_row_list(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values " + ", ".join(f"({i}, 'x')" for i in range(50)))
    for step in range(30):
        db.execute(f"update t set v = 'u{step}' where id = {step}")
    expected = table_rows(db)
    durability.close()

    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == expected
    # Nothing pins a snapshot during recovery: no replayed delta commit
    # leaves its copy of the row list behind.
    table = recovered.table("t")
    assert len(table._history) == 1 and table._history[0][1] is table.rows
    redo.close()


def test_rolled_back_transaction_leaves_no_trace(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'keep')")
    db.execute("begin")
    db.execute("insert into t values (2, 'discard')")
    db.execute("rollback")
    durability.close()
    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == [(1, "keep")]
    # Only CREATE TABLE and the autocommit were logged.
    assert redo.recovered_commits == 2


def test_checkpoint_truncates_and_recovery_replays_suffix(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    for step in range(5):
        db.execute(f"insert into t values ({step}, 'v{step}')")
    durability.checkpoint()
    db.execute("insert into t values (99, 'after')")
    expected = table_rows(db)
    durability.close()

    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == expected
    # Only the post-checkpoint commit replays from the WAL.
    assert redo.recovered_commits == 1


def test_ddl_is_logged_not_checkpointed(tmp_path) -> None:
    """DDL appends a WAL DDL record (DESIGN.md §15) instead of forcing a
    checkpoint, and recovery replays it like any other commit."""
    db, durability = durable_db(tmp_path)
    checkpoints_before = durability.checkpoints
    db.execute("create table extra (id integer)")
    db.execute("create index i_extra on extra (id)")
    db.execute("alter table extra add column tag text")
    assert durability.checkpoints == checkpoints_before
    db.execute("insert into extra values (7, 'x')")
    durability.close()
    recovered, _ = durable_db(tmp_path)
    assert sorted(recovered.table("extra").rows) == [(7, "x")]
    assert recovered.table("extra").schema.column_names == ("id", "tag")
    assert recovered.indexes.get("i_extra").columns == ("id",)
    assert recovered.indexes.lookup_equal("i_extra", 7) == [0]


def test_replayed_drop_table_tombstones_its_indexes(tmp_path) -> None:
    """Recovery enforces what the live database did: a replayed DROP TABLE
    commits catalog tombstones for the indexes it cascades, so after
    recovery a transaction no longer sees them and the names are free."""
    db, durability = open_database(tmp_path)
    db.execute("create table t (id integer)")
    db.execute("create index i_t on t (id)")
    db.execute("drop table t")
    durability.close()
    recovered, redo = open_database(tmp_path)
    recovered.execute("create table u (id integer)")
    recovered.execute("begin")
    assert recovered.indexes.find("i_t") is None
    recovered.execute("create index i_t on u (id)")
    recovered.execute("commit")
    assert recovered.indexes.get("i_t").table == "u"
    redo.close()


def test_wal_sync_mode_resolution(tmp_path) -> None:
    """By default, a commit fsyncs before it returns."""
    db, durability = durable_db(tmp_path)
    syncs = durability.wal.syncs
    db.execute("insert into t values (1, 'synced')")
    assert durability.wal.syncs == syncs + 1


# -- the injected-failure crash harness ---------------------------------------


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_commit_recovers_committed_prefix(tmp_path, failpoint) -> None:
    """Kill the process at each sync point; recovery = exact prefix."""
    db, durability = durable_db(tmp_path)
    rng = random.Random(CRASH_SEED)
    for step in range(6):
        apply_step(db, step, rng)
    prefix = table_rows(db)

    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure) as excinfo:
        db.execute("insert into t values (777, 'doomed')")
    assert excinfo.value.point == failpoint
    # The "process" dies here: the in-memory database is abandoned.

    recovered, redo = durable_db(tmp_path)
    if FAILPOINT_SURVIVES[failpoint]:
        # The record reached the log before the crash: the unacknowledged
        # commit is allowed — and with a real file, guaranteed — to replay.
        assert table_rows(recovered) == sorted(prefix + [(777, "doomed")])
        assert redo.recovered_commits == 8  # CREATE TABLE + 6 steps + doomed
    else:
        assert table_rows(recovered) == prefix
        assert redo.recovered_commits == 7  # CREATE TABLE + 6 steps
    if failpoint == "wal.partial_append":
        assert redo.torn_bytes > 0  # the torn half-frame was discarded
    else:
        assert redo.torn_bytes == 0


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_transactional_commit(tmp_path, failpoint) -> None:
    """Same contract when the dying commit is multi-statement."""
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'base')")
    prefix = table_rows(db)

    db.execute("begin")
    db.execute("insert into t values (2, 'staged')")
    db.execute("update t set v = 'rewritten' where id = 1")
    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        db.execute("commit")

    recovered, redo = durable_db(tmp_path)
    if FAILPOINT_SURVIVES[failpoint]:
        assert table_rows(recovered) == [(1, "rewritten"), (2, "staged")]
    else:
        # Atomicity: neither the insert nor the update may survive alone.
        assert table_rows(recovered) == prefix
    if failpoint != "wal.partial_append":
        assert redo.torn_bytes == 0


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_ddl_commit(tmp_path, failpoint) -> None:
    """The committed-prefix rule holds for autocommit DDL WAL records."""
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'base')")
    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        db.execute("alter table t add column extra integer")

    recovered, redo = durable_db(tmp_path)
    if FAILPOINT_SURVIVES[failpoint]:
        assert recovered.table("t").schema.column_names == ("id", "v", "extra")
        assert table_rows(recovered) == [(1, "base", None)]
    else:
        assert recovered.table("t").schema.column_names == ("id", "v")
        assert table_rows(recovered) == [(1, "base")]
    if failpoint != "wal.partial_append":
        assert redo.torn_bytes == 0


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_transactional_ddl_commit(tmp_path, failpoint) -> None:
    """Atomicity across a transaction mixing DDL and DML: the schema change,
    the index and the staged rows all land or all vanish."""
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'base')")
    db.execute("begin")
    db.execute("alter table t add column extra integer")
    db.execute("insert into t values (2, 'new', 5)")
    db.execute("create index i_t on t (id)")
    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        db.execute("commit")

    recovered, redo = durable_db(tmp_path)
    if FAILPOINT_SURVIVES[failpoint]:
        assert recovered.table("t").schema.column_names == ("id", "v", "extra")
        assert table_rows(recovered) == [(1, "base", None), (2, "new", 5)]
        assert recovered.indexes.find("i_t") is not None
    else:
        assert recovered.table("t").schema.column_names == ("id", "v")
        assert table_rows(recovered) == [(1, "base")]
        assert recovered.indexes.find("i_t") is None
    if failpoint != "wal.partial_append":
        assert redo.torn_bytes == 0


def test_torn_tail_never_resurrects_half_a_commit(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'whole')")
    durability.wal.failpoints.add("wal.partial_append")
    db.execute("begin")
    db.execute("insert into t values (2, 'torn')")
    with pytest.raises(InjectedFailure):
        db.execute("commit")

    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == [(1, "whole")]
    assert redo.torn_bytes > 0
    # Reopening healed the log: the next commit appends after the valid
    # prefix and a further reopen sees both.
    recovered.execute("insert into t values (3, 'next')")
    redo.close()
    final, last = durable_db(tmp_path)
    assert table_rows(final) == [(1, "whole"), (3, "next")]


def test_crash_between_checkpoint_rename_and_truncate(tmp_path) -> None:
    """Snapshot renamed into place but the old WAL survives: no double apply.

    Recovery skips WAL records whose commit ts is at or below the
    checkpoint image's ``ts``, so replaying the stale log is harmless.
    """
    db, durability = durable_db(tmp_path)
    for step in range(4):
        db.execute(f"insert into t values ({step}, 'v{step}')")
    stale_wal = (tmp_path / "wal.log").read_bytes()
    durability.checkpoint()
    expected = table_rows(db)
    durability.close()
    # Undo the truncate, as if the crash hit between rename and truncate.
    (tmp_path / "wal.log").write_bytes(stale_wal)

    recovered, redo = durable_db(tmp_path)
    assert table_rows(recovered) == expected
    assert redo.recovered_commits == 0  # all records at or below the image's ts


def test_randomized_crash_campaign(tmp_path) -> None:
    """Seeded end-to-end campaign: random workload, random crash point.

    Every iteration builds on the previous directory state (recovery is
    itself under test), applies a random number of committed steps,
    crashes at a random failpoint, reopens and checks the prefix rule.
    ``REPRO_CRASH_SEED`` rotates the whole campaign in CI.
    """
    rng = random.Random(f"campaign:{CRASH_SEED}")
    directory = tmp_path / "world"
    db, durability = durable_db(directory)
    expected = table_rows(db)
    next_id = 1000
    for iteration in range(8):
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.2:
                # DDL step: toggle a secondary index so DDL WAL records
                # interleave with DML commits in the replayed log.
                if db.indexes.find("idx_campaign") is None:
                    db.execute("create index idx_campaign on t (id)")
                else:
                    db.execute("drop index idx_campaign")
            else:
                apply_step(db, next_id, rng)
                next_id += 1
            expected = table_rows(db)
        if rng.random() < 0.3:
            durability.checkpoint()
        failpoint = rng.choice(sorted(FAILPOINT_SURVIVES))
        durability.wal.failpoints.add(failpoint)
        if rng.random() < 0.3:
            # Crash around a DDL WAL record: the committed-prefix rule
            # must hold for catalog changes exactly as for row commits.
            creating = db.indexes.find("idx_crash") is None
            doomed_sql = (
                "create index idx_crash on t (id)"
                if creating
                else "drop index idx_crash"
            )
            with pytest.raises(InjectedFailure):
                db.execute(doomed_sql)
            live = db
            db, durability = durable_db(directory)
            assert table_rows(db) == expected, (
                f"iteration {iteration}: rows drifted across a DDL crash "
                f"at {failpoint}"
            )
            assert catalog_state(db) == catalog_state(live), (
                f"iteration {iteration}: the recovered catalog differs from "
                f"the live one after a DDL crash at {failpoint}"
            )
            exists = db.indexes.find("idx_crash") is not None
            survived = FAILPOINT_SURVIVES[failpoint]
            assert exists == (creating if survived else not creating), (
                f"iteration {iteration}: DDL at {failpoint} "
                f"{'lost' if survived else 'resurrected'} the catalog entry"
            )
            continue
        doomed = next_id
        next_id += 1
        with pytest.raises(InjectedFailure):
            db.execute(f"insert into t values ({doomed}, 'doomed')")

        db, durability = durable_db(directory)
        recovered = table_rows(db)
        if FAILPOINT_SURVIVES[failpoint]:
            assert recovered == sorted(expected + [(doomed, "doomed")]), (
                f"iteration {iteration}: unexpected recovered state at "
                f"{failpoint}"
            )
        else:
            assert recovered == expected, (
                f"iteration {iteration}: lost or resurrected commits at "
                f"{failpoint}"
            )
        expected = recovered


# -- visible means durable ----------------------------------------------------


@pytest.mark.parametrize("transactional", [False, True])
def test_no_snapshot_pins_a_commit_before_it_is_flushed(
    tmp_path, transactional
) -> None:
    """While a commit's record is being flushed nobody can pin a snapshot;
    the first snapshot pinned afterwards sees the commit."""
    db, durability = durable_db(tmp_path)
    wal = durability.wal
    flush = wal.sync_to
    pinned: list = []
    waited: list[bool] = []

    def pin() -> None:
        pinned.append(db.transactions.begin())

    def watched_flush(lsn: int) -> None:
        reader = threading.Thread(target=pin)
        reader.start()
        reader.join(timeout=0.2)
        waited.append(reader.is_alive())
        flush(lsn)

    wal.sync_to = watched_flush
    if transactional:
        db.execute("begin")
        db.execute("insert into t values (1, 'a')")
        db.execute("commit")
    else:
        db.execute("insert into t values (1, 'a')")
    wal.sync_to = flush
    assert waited == [True]
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5)
    (txn,) = pinned
    assert txn.snapshot.ts == db.transactions.clock
    db.transactions.rollback(txn)
    durability.close()


# -- group commit -------------------------------------------------------------


def test_group_commit_coalesces_concurrent_fsyncs(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    appends_before = durability.wal.appends  # the CREATE TABLE DDL record
    workers = 8
    commits_per_worker = 5
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def committer(worker: int) -> None:
        try:
            barrier.wait()
            for i in range(commits_per_worker):
                db.execute(
                    f"insert into t values ({worker * 100 + i}, 'w{worker}')"
                )
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=committer, args=(w,)) for w in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    stats = durability.stats()
    assert stats["appends"] - appends_before == workers * commits_per_worker
    # Group commit: strictly fewer fsyncs than appends would be ideal, but
    # timing-dependent; the hard bound is one fsync per append.
    assert stats["syncs"] <= stats["appends"]
    durability.close()
    recovered, redo = durable_db(tmp_path)
    assert len(table_rows(recovered)) == workers * commits_per_worker
    # + 1: the CREATE TABLE DDL record replays too.
    assert redo.recovered_commits == workers * commits_per_worker + 1


# -- frame-level robustness ---------------------------------------------------


def test_replay_stops_at_corrupt_record(tmp_path) -> None:
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append({"type": COMMIT, "ts": 1, "tables": {}})
    wal.append({"type": COMMIT, "ts": 2, "tables": {}})
    wal.close()
    data = (tmp_path / "wal.log").read_bytes()
    # Flip a payload byte of the second record: CRC must reject it.
    broken = data[:-10] + bytes([data[-10] ^ 0xFF]) + data[-9:]
    (tmp_path / "wal.log").write_bytes(broken)
    reopened = WriteAheadLog(tmp_path / "wal.log")
    records, torn = reopened.replay()
    assert [r["ts"] for r in records] == [1]
    assert torn > 0
    reopened.close()


def test_checkpoint_record_types_round_trip(tmp_path) -> None:
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'x')")
    durability.checkpoint()
    records, torn = durability.wal.replay()
    assert torn == 0
    assert [r["type"] for r in records] == [CHECKPOINT]
    snapshot = json.loads((tmp_path / "snapshot.json").read_text())
    assert snapshot["ts"] == db.transactions.clock


def test_write_conflict_is_not_logged(tmp_path) -> None:
    """An aborted commit must leave no WAL record to replay."""
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'x')")
    appends_before = durability.wal.appends
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute("update t set v = 'staged' where id = 1")
    db.execute("update t set v = 'winner' where id = 1")
    with pytest.raises(WriteConflictError):
        db.transactions.commit(txn)
    assert durability.wal.appends == appends_before + 1  # only the winner
    durability.close()
    recovered, _ = durable_db(tmp_path)
    assert table_rows(recovered) == [(1, "winner")]


@pytest.mark.parametrize(
    "statement",
    ["update t set v = 'staged' where id = 1", "alter table t add column x integer"],
)
def test_write_to_a_table_dropped_since_the_snapshot_is_not_logged(
    tmp_path, statement
) -> None:
    """A transaction that wrote a table dropped after its snapshot aborts
    before the log: a record naming the table would fail recovery."""
    db, durability = durable_db(tmp_path)
    db.execute("insert into t values (1, 'x')")
    db.execute("create table keep (id integer)")
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute(statement)
    db.execute("drop table t")
    appends_before = durability.wal.appends
    with pytest.raises(WriteConflictError):
        db.transactions.commit(txn)
    assert durability.wal.appends == appends_before
    assert db.transactions.active_count() == 0
    durability.close()
    recovered, _ = open_database(tmp_path)
    assert list(recovered.tables) == ["keep"]


# -- delta commits --------------------------------------------------------------

#: Table → DDL.  ``k`` is keyed, ``t`` has no primary key, ``d`` declares one
#: but holds every key twice (the engine does not enforce uniqueness).
DELTA_TABLES = {
    "k": "create table k (id integer primary key, v text)",
    "t": "create table t (id integer, v text)",
    "d": "create table d (id integer primary key, v text)",
}


def build_delta_world(db) -> None:
    for name, ddl in DELTA_TABLES.items():
        db.execute(ddl)
        copies = 2 if name == "d" else 1
        db.table(name).append_rows(
            (i, f"{name}{i}") for i in range(8) for _ in range(copies)
        )


def delta_db(directory):
    db, durability = open_database(directory)
    if "k" not in db.tables:
        build_delta_world(db)
    return db, durability


def ordered_rows(db) -> dict:
    """Every table's rows in storage order — what positions address."""
    return {name: list(db.table(name).rows) for name in DELTA_TABLES}


def _statement(sql):
    def scenario(db, table):
        return lambda: db.execute(sql.format(t=table))

    return scenario


def _churn_transaction(db, table):
    """Insert, update and delete one row, plus a surviving update and delete."""
    db.execute("begin")
    db.execute(f"insert into {table} values (50, 'new')")
    db.execute(f"update {table} set v = 'touched' where id = 50")
    db.execute(f"update {table} set v = 'kept' where id = 2")
    db.execute(f"delete from {table} where id = 50")
    db.execute(f"delete from {table} where id = 5")
    db.execute(f"insert into {table} values (51, 'tail')")
    return lambda: db.execute("commit")


def _rebased_commit(db, table):
    txn = db.transactions.begin()
    with txn_scope(txn):
        db.execute(f"update {table} set v = 'mine' where id = 1")
        db.execute(f"delete from {table} where id = 4")
    db.execute(f"delete from {table} where id = 0")  # shifts every position
    db.execute(f"update {table} set v = 'theirs' where id = 6")
    return lambda: db.transactions.commit(txn)


def _ddl_with_delta(db, table):
    db.execute("begin")
    db.execute(f"create index i_crash on {table} (id)")
    db.execute(f"update {table} set v = 'indexed' where id = 4")
    return lambda: db.execute("commit")


#: Name → (scenario, tables it runs on).  A scenario stages its work and
#: returns the call that commits it — the one the failpoint kills.
DELTA_SCENARIOS = {
    "update": (_statement("update {t} set v = 'u' where id = 3"), "ktd"),
    "key_change": (_statement("update {t} set id = 30 where id = 3"), "ktd"),
    "delete": (_statement("delete from {t} where id = 3"), "ktd"),
    "churn_txn": (_churn_transaction, "ktd"),
    "ddl_with_delta": (_ddl_with_delta, "ktd"),
    # Only a keyed table without duplicates rebases; the others conflict.
    "rebased": (_rebased_commit, "k"),
}

DELTA_CASES = [
    (name, table)
    for name, (_, tables) in DELTA_SCENARIOS.items()
    for table in tables
]


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
@pytest.mark.parametrize("name,table", DELTA_CASES)
def test_crash_mid_delta_commit(tmp_path, name, table, failpoint) -> None:
    """Exact committed prefix, rows in order, for every delta shape."""
    scenario = DELTA_SCENARIOS[name][0]
    twin = Database("twin")
    build_delta_world(twin)
    scenario(twin, table)()
    after = ordered_rows(twin)

    db, durability = delta_db(tmp_path)
    commit = scenario(db, table)
    with txn_scope(None):  # the committed state, not the staged overlay
        before = ordered_rows(db)
    assert before != after
    deltas = durability.records["delta"]
    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        commit()
    survives = FAILPOINT_SURVIVES[failpoint]
    # The dying record really was a delta, not the whole-table fallback.
    assert durability.records["delta"] == deltas + survives
    assert durability.records["replace"] == 0

    recovered, redo = delta_db(tmp_path)
    assert ordered_rows(recovered) == (after if survives else before)
    if name == "ddl_with_delta":
        assert (recovered.indexes.find("i_crash") is not None) == survives
    assert (redo.torn_bytes > 0) == (failpoint == "wal.partial_append")
    # The healed log takes further deltas at the right positions.
    recovered.execute(f"update {table} set v = 'next' where id = 7")
    recovered.execute(f"delete from {table} where id = 6")
    expected = ordered_rows(recovered)
    redo.close()
    final, last = delta_db(tmp_path)
    assert ordered_rows(final) == expected
    last.close()


def test_torn_delta_frame_never_half_applies(tmp_path) -> None:
    """Cut the log anywhere inside a delta frame: none of its updates,
    deletes or inserts is applied."""
    world = tmp_path / "world"
    db, durability = delta_db(world)
    before = ordered_rows(db)
    whole = (world / "wal.log").stat().st_size
    _churn_transaction(db, "k")()
    after = ordered_rows(db)
    durability.close()
    end = (world / "wal.log").stat().st_size
    assert durability.records["delta"] == 1
    for cut in sorted({whole + 1, whole + 19, (whole + end) // 2, end - 2, end - 1}):
        copy = tmp_path / f"cut{cut}"
        shutil.copytree(world, copy)
        os.truncate(copy / "wal.log", cut)
        recovered, redo = delta_db(copy)
        assert ordered_rows(recovered) == before, cut
        assert redo.torn_bytes == cut - whole
        redo.close()
    intact, redo = delta_db(world)
    assert ordered_rows(intact) == after
    redo.close()


def test_log_of_append_and_replace_records_replays_unchanged(tmp_path) -> None:
    """A log written before delta records existed (``append`` and whole-list
    ``replace`` effects only, DDL included) recovers to the very document
    the engine that wrote it recovered.  Its ``create_index`` record still
    carries the ``"partitioned_by"`` key indexes no longer have; the
    expected document is that engine's, minus that key."""
    data = Path(__file__).parent / "data"
    shutil.copy(data / "wal_append_replace.log", tmp_path / "wal.log")
    ops = {
        effect["op"]
        for line in (tmp_path / "wal.log").read_text().splitlines()
        for effect in json.loads(line.split(" ", 2)[2]).get("tables", {}).values()
    }
    assert ops == {"append", "replace"}
    recovered, redo = open_database(tmp_path)
    assert redo.recovered_commits == 10 and redo.torn_bytes == 0
    expected = (data / "wal_append_replace.snapshot.json").read_text()
    assert persist.dumps(recovered) == expected
    assert recovered.indexes.lookup_equal("i_k", 40) == [2]
    redo.close()


def test_create_index_record_grouped_by_policy_replays_as_a_plain_index(
    tmp_path,
) -> None:
    """A ``create_index`` record from when an index could also group its
    rows by policy carries ``"partitioned_by": "policy"``.  Replay registers
    a plain index on the key columns, and its lookups agree with an index
    created fresh."""
    db, durability = open_database(tmp_path)
    db.execute("create table t (id integer, g integer, policy bit varying)")
    db.execute("insert into t values (1, 10, null), (2, 20, null), (3, 10, null)")
    db.execute("create index i_g on t (g)")
    durability.close()
    log = tmp_path / "wal.log"
    frames = []
    for line in log.read_bytes().splitlines():
        record = json.loads(line.split(b" ", 2)[2])
        for op in record.get("ops", ()):
            if op["op"] == "create_index":
                op["definition"]["partitioned_by"] = "policy"
        payload = json.dumps(record, separators=(",", ":")).encode()
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        frames.append(b"%08x %08x %s\n" % (crc, len(payload), payload))
    assert b'"partitioned_by":"policy"' in b"".join(frames)
    log.write_bytes(b"".join(frames))
    recovered, redo = open_database(tmp_path)
    assert redo.torn_bytes == 0
    assert recovered.indexes.get("i_g") == IndexDefinition("i_g", "t", ("g",))
    recovered.execute("create index fresh on t (g)")
    for key in (10, 20, 30):
        assert recovered.indexes.lookup_equal("i_g", key) == (
            recovered.indexes.lookup_equal("fresh", key)
        )
    assert recovered.indexes.lookup_equal("i_g", 10) == [0, 2]
    redo.close()


def test_randomized_delta_crash_campaign(tmp_path) -> None:
    """Seeded campaign over the three tables: random committed deltas
    (single statements, churn transactions, rebased commits, checkpoints),
    then a random delta dies at a random failpoint; every reopen must show
    exactly the committed prefix with every row at its position."""
    rng = random.Random(f"delta-campaign:{CRASH_SEED}")
    directory = tmp_path / "world"
    db, durability = delta_db(directory)
    next_id = 100

    def random_delta(target, table: str, fresh: int) -> None:
        ids = [row[0] for row in target.table(table).rows]
        roll = rng.random()
        if roll < 0.3 and ids:
            target.execute(
                f"update {table} set v = 'u{fresh}' where id = {rng.choice(ids)}"
            )
        elif roll < 0.45 and ids:
            target.execute(
                f"update {table} set id = {fresh} where id = {rng.choice(ids)}"
            )
        elif roll < 0.6 and len(ids) > 4:
            target.execute(f"delete from {table} where id = {rng.choice(ids)}")
        elif roll < 0.8 and ids:
            target.execute("begin")
            target.execute(f"insert into {table} values ({fresh}, 'i{fresh}')")
            target.execute(f"update {table} set v = 't{fresh}' where id = {fresh}")
            target.execute(
                f"update {table} set v = 'w{fresh}' where id = {rng.choice(ids)}"
            )
            if rng.random() < 0.5:
                target.execute(f"delete from {table} where id = {fresh}")
            target.execute("commit")
        else:
            target.execute(f"insert into {table} values ({fresh}, 'a{fresh}')")

    for iteration in range(8):
        for _ in range(rng.randint(1, 5)):
            random_delta(db, rng.choice("ktd"), next_id)
            next_id += 1
        if rng.random() < 0.3:
            durability.checkpoint()
        expected = ordered_rows(db)
        # What the doomed statement would leave, worked out on a copy.
        twin = persist.loads(persist.dumps(db))
        table = rng.choice("ktd")
        state = rng.getstate()
        random_delta(twin, table, next_id)
        survived = ordered_rows(twin)
        failpoint = rng.choice(sorted(FAILPOINT_SURVIVES))
        durability.wal.failpoints.add(failpoint)
        rng.setstate(state)
        with pytest.raises(InjectedFailure):
            random_delta(db, table, next_id)
        rng.choice(sorted(FAILPOINT_SURVIVES))  # keep both streams aligned
        next_id += 1

        db, durability = delta_db(directory)
        assert ordered_rows(db) == (
            survived if FAILPOINT_SURVIVES[failpoint] else expected
        ), f"iteration {iteration}: wrong rows or order after {failpoint}"


# -- reload and recovery round-trip ---------------------------------------------

#: Histories each seed draws.
ROUND_TRIP_HISTORIES = 25


def round_trip_state(db) -> tuple:
    """What a reload or a recovery must bring back: every table's schema and
    rows in order, the index definitions, the catalog version and the clock.
    Every index's probes are checked against a scan on the way."""
    for definition in db.indexes.definitions():
        (column,) = definition.columns
        values = db.table(definition.table).column_values(column)
        for key in set(values) - {None}:
            assert db.indexes.lookup_equal(definition.name, key) == [
                position for position, value in enumerate(values) if value == key
            ], (definition, key)
    tables = {
        name: (table.schema.columns, table.rows) for name, table in db.tables.items()
    }
    return tables, db.indexes.definitions(), db.catalog.version, db.transactions.clock


def round_trip_dml(db, rng: random.Random, fresh: int) -> str:
    """One INSERT, UPDATE or DELETE on a random table (a key-less table
    sometimes gets a duplicate id)."""
    name = rng.choice(sorted(db.tables))
    table = db.table(name)
    columns = table.schema.column_names
    ids = table.column_values("id")
    roll = rng.random()
    if roll < 0.4 or not ids:
        keyless = not table.schema.columns[0].primary_key
        values = {
            "id": str(rng.choice(ids) if keyless and ids and roll < 0.1 else fresh),
            "v": f"'v{fresh}'",
        }
        row = ", ".join(values.get(c, rng.choice(("null", "1", "2"))) for c in columns)
        return f"insert into {name} values ({row})"
    if roll < 0.75:
        column = rng.choice(columns)
        value = {"id": str(fresh), "v": f"'u{fresh}'"}.get(column, str(fresh % 3))
        return f"update {name} set {column} = {value} where id = {rng.choice(ids)}"
    return f"delete from {name} where id = {rng.choice(ids)}"


def round_trip_ddl(db, rng: random.Random, kind: str, fresh: int) -> str:
    """One DDL statement of ``kind``; a DROP COLUMN prefers an indexed
    column."""
    if kind == "create_table":
        key = " primary key" if rng.random() < 0.5 else ""
        return f"create table t{fresh} (id integer{key}, v text)"
    if kind == "drop_index":
        return f"drop index {rng.choice(db.indexes.definitions()).name}"
    name = rng.choice(sorted(db.tables))
    if kind == "drop_table":
        return f"drop table {name}"
    columns = db.table(name).schema.column_names
    if kind == "create_index":
        using = " using hash" if rng.random() < 0.3 else ""
        return f"create index i{fresh} on {name} ({rng.choice(columns)}){using}"
    droppable = [column for column in columns if column != "id"]
    if kind == "add_column" or not droppable:
        return f"alter table {name} add column c{fresh} integer"
    indexed = [
        column
        for definition in db.indexes.for_table(name)
        for column in definition.columns
        if column != "id"
    ]
    return f"alter table {name} drop column {rng.choice(indexed or droppable)}"


def round_trip_step(db, rng: random.Random, fresh) -> list[str]:
    """Draw and run one history step — a DDL statement, an autocommitted
    DML statement or a BEGIN…COMMIT of one to three — and return its
    statements.  ``fresh`` yields unused ids and names."""
    kinds = ["create_table"]
    if db.tables:
        kinds += ["drop_table", "add_column", "drop_column"]
        kinds += ["create_index", "create_index", "dml", "dml", "dml"]
        kinds += ["transaction", "transaction"]
    if db.indexes.definitions():
        kinds.append("drop_index")
    kind = rng.choice(kinds)
    if kind != "transaction":
        sql = (
            round_trip_dml(db, rng, next(fresh))
            if kind == "dml"
            else round_trip_ddl(db, rng, kind, next(fresh))
        )
        db.execute(sql)
        return [sql]
    statements = ["begin"]
    db.execute("begin")
    for _ in range(rng.randint(1, 3)):
        statements.append(round_trip_dml(db, rng, next(fresh)))
        db.execute(statements[-1])
    db.execute("commit")
    return [*statements, "commit"]


def test_reload_and_recovery_rebuild_the_live_database(tmp_path) -> None:
    """Seeded round-trip property: after a random history of DDL and DML
    with a checkpoint at a random step, both a reload of the image
    (``persist.loads(persist.dumps(db))``) and a recovery
    (``open_database``) equal the live database — rows, schemas, index
    definitions and probes, catalog version and clock."""
    rng = random.Random(f"round-trip:{CRASH_SEED}")
    for history in range(ROUND_TRIP_HISTORIES):
        directory = tmp_path / f"h{history}"
        db, durability = open_database(directory, sync=False)
        fresh = itertools.count(1)
        steps = rng.randint(1, 12)
        checkpoint_at = rng.randint(0, steps)
        log = []
        for step in range(steps + 1):
            if step == checkpoint_at:
                durability.checkpoint()
                log.append("-- checkpoint")
            if step < steps:
                log += round_trip_step(db, rng, fresh)
        expected = round_trip_state(db)
        context = f"history {history}:\n" + "\n".join(log)
        assert round_trip_state(persist.loads(persist.dumps(db))) == expected, context
        durability.close()
        recovered, redo = open_database(directory, sync=False)
        assert round_trip_state(recovered) == expected, context
        redo.close()


# -- mask stores ------------------------------------------------------------------

#: What the enforced answers are read with, per purpose.
MASK_QUERIES = ("select id, v from m", "select count(v) from m")


def policy_db(directory):
    """A durable database with one protected table ``m``; a reopened one
    is re-attached from its Pr/Pm tables."""
    db, durability = open_database(directory)
    if "pr" in db.tables:
        return db, durability, AccessControlManager.from_existing(db)
    db.execute("create table m (id integer primary key, v text)")
    db.table("m").append_rows((i, f"m{i}") for i in range(8))
    admin = AccessControlManager(db)
    admin.configure(
        purposes=PurposeSet([Purpose("p1", "treatment"), Purpose("p2", "research")])
    )
    admin.apply_policy(Policy("m", (PolicyRule.pass_all(),)))
    return db, durability, admin


def enforced_state(admin) -> tuple:
    """The stored masks and every enforced answer, per purpose."""
    monitor = EnforcementMonitor(admin)
    return admin.policy_masks("m"), [
        sorted(monitor.execute(sql, purpose).rows)
        for sql in MASK_QUERIES
        for purpose in ("p1", "p2")
    ]


def random_mask_policy(rng: random.Random):
    """A pass-none or p1-only policy on one row, or on the whole table."""
    rule = rng.choice(
        (
            PolicyRule.pass_none(),
            PolicyRule.of(["id", "v"], ["p1"], ActionType.indirect(JointAccess.none())),
        )
    )
    selector = ("id", rng.randrange(8)) if rng.random() < 0.7 else None
    return Policy("m", (rule,), tuple_selector=selector)


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_mask_store(tmp_path, failpoint) -> None:
    """A mask store is one row commit: it appends one WAL record and moves
    no epoch, and recovery brings back exactly the committed prefix's masks
    and enforced answers."""
    rng = random.Random(f"mask-store:{CRASH_SEED}:{failpoint}")
    db, durability, admin = policy_db(tmp_path)
    appends, version = durability.wal.appends, db.catalog.version
    admin.apply_policy(random_mask_policy(rng))
    assert durability.wal.appends == appends + 1
    assert db.catalog.version == version
    before = enforced_state(admin)

    # What the doomed store would leave, worked out on a twin (drawn until
    # it changes something, so the two outcomes are told apart).
    twin, twin_durability, twin_admin = policy_db(tmp_path / "twin")
    after = before
    while after == before:
        doomed = random_mask_policy(rng)
        twin.table("m").rows = list(db.table("m").rows)
        twin_admin.apply_policy(doomed)
        after = enforced_state(twin_admin)
    twin_durability.close()

    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        admin.apply_policy(doomed)

    recovered, redo, recovered_admin = policy_db(tmp_path)
    survives = FAILPOINT_SURVIVES[failpoint]
    assert enforced_state(recovered_admin) == (after if survives else before)
    assert (redo.torn_bytes > 0) == (failpoint == "wal.partial_append")
    redo.close()


# -- checkpoints racing commits --------------------------------------------------


def test_checkpoint_racing_commits_loses_no_acknowledged_commit(tmp_path) -> None:
    """A commit landing while a checkpoint is being taken is either in the
    image or in the log that survives it — never acknowledged and erased."""
    db, durability = delta_db(tmp_path)
    acked: list[int] = []
    errors: list[BaseException] = []
    done = threading.Event()

    def committer() -> None:
        try:
            for i in range(150):
                db.execute(f"insert into k values ({1000 + i}, 'c')")
                db.execute(f"update k set v = 'acked' where id = {1000 + i}")
                acked.append(1000 + i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=committer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        thread.start()
        while not done.is_set():
            durability.checkpoint()
    finally:
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and errors == []
    assert durability.checkpoints > 1
    expected = ordered_rows(db)
    durability.close()
    recovered, redo = delta_db(tmp_path)
    assert ordered_rows(recovered) == expected
    kept = {row[0]: row[1] for row in recovered.table("k").rows}
    assert [kept.get(i) for i in acked] == ["acked"] * 150
    redo.close()


# -- audit records ride the next fsync --------------------------------------------


def audited_db(directory):
    """:func:`policy_db` plus an audit log: every enforced read appends a
    non-durable row to ``al``."""
    db, durability, admin = policy_db(directory)
    monitor = EnforcementMonitor(admin)
    monitor.attach_audit(AuditLog(db))
    return db, durability, monitor


def audit_seqs(db) -> list[int]:
    return sorted(row[0] for row in db.table("al").rows)


def pending(wal) -> int:
    """Frames written but not yet fsynced."""
    stats = wal.stats()
    return stats["written_lsn"] - stats["synced_lsn"]


def test_an_audited_read_appends_one_frame_and_no_fsync(tmp_path) -> None:
    db, durability, monitor = audited_db(tmp_path)
    wal = durability.wal
    appends, syncs = wal.appends, wal.syncs
    monitor.execute("select id, v from m", "p1")
    assert (wal.appends, wal.syncs, pending(wal)) == (appends + 1, syncs, 1)
    durability.close()


def test_the_next_data_commit_fsyncs_the_pending_audit_frames(tmp_path) -> None:
    db, durability, monitor = audited_db(tmp_path)
    wal = durability.wal
    for purpose in ("p1", "p2", "p1"):
        monitor.execute("select count(v) from m", purpose)
    assert pending(wal) == 3
    syncs, audit_lsn = wal.syncs, wal.stats()["written_lsn"]
    db.execute("update m set v = 'x' where id = 1")
    assert wal.syncs == syncs + 1
    assert wal.stats()["synced_lsn"] == audit_lsn + 1 and pending(wal) == 0
    durability.close()


@pytest.mark.parametrize("failpoint", sorted(FAILPOINT_SURVIVES))
def test_crash_mid_commit_after_pending_audit_frames(tmp_path, failpoint) -> None:
    """A process crash at any failpoint of a data commit that follows
    unsynced audit frames loses none of them: recovery brings back every
    audit row written before the crash plus the committed prefix."""
    rng = random.Random(f"audit:{CRASH_SEED}:{failpoint}")
    db, durability, monitor = audited_db(tmp_path)
    for step in range(rng.randint(1, 4)):
        db.execute(f"update m set v = 's{step}' where id = {rng.randrange(8)}")
        for _ in range(rng.randint(1, 4)):
            monitor.execute(rng.choice(MASK_QUERIES), rng.choice(("p1", "p2")))
    assert pending(durability.wal) > 0
    written = audit_seqs(db)
    prefix = {row[0]: row[1] for row in db.table("m").rows}

    durability.wal.failpoints.add(failpoint)
    with pytest.raises(InjectedFailure):
        db.execute("update m set v = 'doomed' where id = 0")

    recovered, redo, _admin = policy_db(tmp_path)
    assert audit_seqs(recovered) == written
    if FAILPOINT_SURVIVES[failpoint]:
        prefix[0] = "doomed"
    assert {row[0]: row[1] for row in recovered.table("m").rows} == prefix
    redo.close()


def test_the_pending_limit_th_audit_frame_fsyncs(tmp_path) -> None:
    db, durability, monitor = audited_db(tmp_path)
    wal = durability.wal
    syncs = wal.syncs
    for _ in range(PENDING_LIMIT - 1):
        monitor.audit.record("u", "p1", "q", "select 1", "allowed")
    assert (wal.syncs, pending(wal)) == (syncs, PENDING_LIMIT - 1)
    monitor.audit.record("u", "p1", "q", "select 1", "allowed")
    assert (wal.syncs, pending(wal)) == (syncs + 1, 0)
    durability.close()


def test_close_fsyncs_pending_audit_frames(tmp_path) -> None:
    db, durability, monitor = audited_db(tmp_path)
    monitor.execute("select id, v from m", "p1")
    monitor.execute("select id, v from m", "p2")
    written, syncs = audit_seqs(db), durability.wal.syncs
    durability.close()
    stats = durability.wal.stats()
    assert stats["synced_lsn"] == stats["written_lsn"]
    assert stats["syncs"] == syncs + 1
    recovered, redo, _admin = policy_db(tmp_path)
    assert audit_seqs(recovered) == written
    redo.close()


# -- access-control state survives a reload and a recovery -------------------------

#: Who the access-control histories draw, and for what.
ACCESS_USERS = ("ann", "bob")
ACCESS_PURPOSES = ("p1", "p2")

#: Access-control histories each seed draws.
ACCESS_HISTORIES = 25

#: The purpose a taxonomy step defines or removes (no grant names it).
SCRATCH_PURPOSE = "p9"

#: The column a taxonomy step adds to or drops from ``m`` (no rule names it).
SCRATCH_COLUMN = "x"


def role_db(directory):
    """:func:`audited_db` whose monitor authorizes through the role
    extension, installed on a fresh database."""
    db, durability, monitor = audited_db(directory)
    roles = RoleManager(monitor.admin)
    if not db.has_table("ro"):
        roles.install()
    monitor.authorizer = roles
    return db, durability, monitor


def reopened(db, durability, directory, how: str):
    """The database again, reloaded from its image or recovered from its
    directory (``durability`` is closed either way), and its manager."""
    if how == "reload":
        copy = persist.loads(persist.dumps(db))
        durability.close()
        return copy, None, AccessControlManager.from_existing(copy)
    durability.close()
    return policy_db(directory)


def access_state(roles, audit) -> tuple:
    """Every drawn user × purpose authorization and user check, the audit
    trail, the taxonomy — purposes, ``m``'s categories and mask layout —
    the catalog version, and the stored masks and enforced answers."""
    admin = roles.admin
    return (
        [
            (user, purpose, roles.is_authorized(user, purpose), roles.known_user(user))
            for user in ACCESS_USERS
            for purpose in ACCESS_PURPOSES
        ],
        audit.records,
        admin.purposes.ids(),
        [admin.category("m", column) for column in admin.table_columns("m")],
        admin.layout("m").rule_length,
        admin.database.catalog.version,
        enforced_state(admin),
    )


@pytest.mark.parametrize("how", ["reload", "recover"])
def test_a_reopened_role_catalog_serves_its_roles(tmp_path, how) -> None:
    """A fresh RoleManager on a reloaded or recovered database authorizes
    through the roles that database stores, and takes new assignments
    without install()."""
    db, durability, monitor = role_db(tmp_path)
    roles = monitor.authorizer
    roles.define_role("staff")
    roles.define_role("nurse", parent="staff")
    roles.grant_purpose_to_role("staff", "p2")
    roles.assign_role("rita", "nurse")

    db, redo, admin = reopened(db, durability, tmp_path, how)
    roles = RoleManager(admin)
    assert roles.roles() == ("staff", "nurse")
    assert roles.ancestry("nurse") == ["nurse", "staff"]
    assert roles.is_authorized("rita", "p2") and roles.known_user("rita")
    assert not roles.is_authorized("rita", "p1")
    roles.assign_role("sam", "staff")
    assert roles.is_authorized("sam", "p2") and roles.user_roles("sam") == ["staff"]
    with pytest.raises(ConfigurationError):
        roles.install()
    if redo is not None:
        redo.close()


@pytest.mark.parametrize("how", ["reload", "recover"])
def test_a_reopened_audit_log_lists_its_trail(tmp_path, how) -> None:
    """A fresh AuditLog on a reloaded or recovered database reads the rows
    ``al`` kept: the persisted denial is listed and its length is theirs."""
    db, durability, monitor = audited_db(tmp_path)
    monitor.admin.grant_purpose("ann", "p1")
    monitor.execute(MASK_QUERIES[0], "p1", user="ann")
    with pytest.raises(UnauthorizedPurposeError):
        monitor.execute(MASK_QUERIES[0], "p2", user="ann")

    db, redo, _admin = reopened(db, durability, tmp_path, how)
    log = AuditLog(db)
    assert len(log) == len(db.table("al").rows) == 2
    (denial,) = log.denials()
    assert (denial.user, denial.purpose, denial.statement) == ("ann", "p2", MASK_QUERIES[0])
    assert [record.outcome for record in log.records] == ["allowed", "denied"]
    log.record("ann", "p1", "q", "select 1", "allowed")
    assert len(log) == 3 and log.records[-1].sequence == 3
    if redo is not None:
        redo.close()


def taxonomy_step(admin, rng: random.Random, kind: str) -> str:
    """Define or remove :data:`SCRATCH_PURPOSE`, add or drop
    :data:`SCRATCH_COLUMN` of ``m`` (each re-encoding ``m``'s stored masks),
    or categorize a column of ``m``: as autocommits, or inside
    BEGIN … COMMIT or BEGIN … ROLLBACK."""
    database = admin.database
    end = rng.choice(("autocommit", "commit", "rollback"))
    if end != "autocommit":
        database.begin()
    if kind == "purpose":
        if SCRATCH_PURPOSE in admin.purposes:
            admin.remove_purpose(SCRATCH_PURPOSE)
            kind = "remove"
        else:
            admin.define_purpose(Purpose(SCRATCH_PURPOSE, "scratch"))
            kind = "define"
    elif kind == "alter":
        if SCRATCH_COLUMN in admin.table_columns("m"):
            kind = f"alter table m drop column {SCRATCH_COLUMN}"
        else:
            kind = f"alter table m add column {SCRATCH_COLUMN} integer"
        database.execute(kind)
    else:
        column = rng.choice(admin.table_columns("m"))
        category = rng.choice(admin.categories.categories)
        admin.categorize("m", column, category)
        kind = f"categorize m.{column} {category.code}"
    if end == "commit":
        database.commit()
    elif end == "rollback":
        database.rollback()
    return f"{kind} ({end})"


def access_step(monitor, rng: random.Random, fresh) -> str:
    """Draw and run one access-control step — a Pa grant or revoke, a role
    definition, assignment or authorization change, a session purpose
    switch, an audited read or EXPLAIN (allowed or denied), a mask store
    or a taxonomy or schema edit (:func:`taxonomy_step`) — and return
    what it did."""
    admin, roles = monitor.admin, monitor.authorizer
    user, purpose = rng.choice(ACCESS_USERS), rng.choice(ACCESS_PURPOSES)
    defined = roles.roles()
    kind = rng.choice(
        ["grant", "grant", "revoke", "define", "switch", "read", "read", "explain"]
        + ["mask", "purpose", "categorize", "categorize", "alter"]
        + ["assign", "assign", "unassign", "role_grant", "role_grant", "role_revoke"]
        * bool(defined)
    )
    role = rng.choice(defined) if defined else None
    if kind in ("purpose", "categorize", "alter"):
        return taxonomy_step(admin, rng, kind)
    if kind == "mask":
        policy = random_mask_policy(rng)
        admin.apply_policy(policy)
        return f"mask {policy.rules[0]} on {policy.tuple_selector}"
    if kind == "grant":
        admin.grant_purpose(user, purpose)
    elif kind == "revoke":
        admin.revoke_purpose(user, purpose)
    elif kind == "define":
        role = f"r{next(fresh)}"
        parent = rng.choice(defined) if defined and rng.random() < 0.5 else None
        roles.define_role(role, parent)
        return f"define {role} under {parent}"
    elif kind == "assign":
        roles.assign_role(user, role)
    elif kind == "unassign":
        roles.unassign_role(user, role)
    elif kind == "role_grant":
        roles.grant_purpose_to_role(role, purpose)
    elif kind == "role_revoke":
        roles.revoke_purpose_from_role(role, purpose)
    elif kind == "switch":
        if not roles.known_user(user):
            return f"switch {user}: unknown"
        other = rng.choice(ACCESS_PURPOSES)
        Session(monitor, user, purpose).set_purpose(other)
        return f"switch {user} {purpose} -> {other}"
    else:
        sql = rng.choice(MASK_QUERIES)
        run = monitor.explain if kind == "explain" else monitor.execute
        try:
            run(sql, purpose, user=user)
        except UnauthorizedPurposeError:
            return f"{kind} {user} {purpose}: denied"
    return f"{kind} {user} {role or ''} {purpose}"


def test_reload_and_recovery_keep_the_access_control_state(tmp_path) -> None:
    """Seeded round-trip property: after a random history of Pa and role
    changes, purpose switches, audited statements, mask stores and
    taxonomy and schema edits (committed or rolled back) with a checkpoint
    at a random step, a fresh RoleManager and AuditLog on a reload of the image
    and on a recovery agree with the live ones — every user × purpose
    authorization, every user check, the whole audit trail, the taxonomy,
    the catalog version and the enforced answers."""
    rng = random.Random(f"access-round-trip:{CRASH_SEED}")
    for history in range(ACCESS_HISTORIES):
        directory = tmp_path / f"h{history}"
        db, durability, monitor = role_db(directory)
        fresh = itertools.count(1)
        steps = rng.randint(1, 24)
        checkpoint_at = rng.randint(0, steps)
        log = []
        for step in range(steps + 1):
            if step == checkpoint_at:
                durability.checkpoint()
                log.append("-- checkpoint")
            if step < steps:
                log.append(access_step(monitor, rng, fresh))
        expected = access_state(monitor.authorizer, monitor.audit)
        context = f"history {history}:\n" + "\n".join(log)
        reloaded = persist.loads(persist.dumps(db))
        admin = AccessControlManager.from_existing(reloaded)
        assert access_state(RoleManager(admin), AuditLog(reloaded)) == expected, context
        durability.close()
        recovered, redo, admin = policy_db(directory)
        assert access_state(RoleManager(admin), AuditLog(recovered)) == expected, context
        redo.close()
