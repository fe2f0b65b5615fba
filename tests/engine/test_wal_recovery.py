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

The same contract is checked for **delta commits** — the records an
UPDATE/DELETE logs, holding only the written rows addressed by position —
on a keyed table, a table without a primary key and one with duplicate
keys, where "exactly the committed prefix" also means *the same rows in the
same order* (positions replay onto nothing else).

``REPRO_CRASH_SEED`` rotates the randomized campaigns' seed — the CI
crash-recovery matrix replays this module under 20 different values.
"""

from __future__ import annotations

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
)
from repro.engine import persist, txn_scope
from repro.engine.database import Database
from repro.engine.index import IndexDefinition
from repro.engine.wal import (
    CHECKPOINT,
    COMMIT,
    WriteAheadLog,
    open_database,
)
from repro.errors import InjectedFailure, WriteConflictError

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
    checkpoint's ``wal_clock``, so replaying the stale log is harmless.
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
    assert redo.recovered_commits == 0  # all records at or below wal_clock


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
    assert snapshot["wal_clock"] == db.transactions.clock


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
