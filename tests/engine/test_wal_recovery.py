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

``REPRO_CRASH_SEED`` rotates the randomized campaign's seed — the CI
crash-recovery matrix replays this module under 20 different values.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.engine.wal import (
    CHECKPOINT,
    COMMIT,
    WriteAheadLog,
    open_database,
    resolve_wal_sync,
)
from repro.errors import InjectedFailure, WriteConflictError

import random

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
    # 8 workload commits + the CREATE TABLE DDL record (DESIGN.md §16).
    assert redo.recovered_commits == 9
    assert redo.torn_bytes == 0


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
    """DDL appends a WAL DDL record (DESIGN.md §16) instead of forcing a
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


def test_wal_sync_mode_resolution(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_WAL_SYNC", raising=False)
    assert resolve_wal_sync() is True
    monkeypatch.setenv("REPRO_WAL_SYNC", "off")
    assert resolve_wal_sync() is False
    assert resolve_wal_sync("on") is True


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
            db, durability = durable_db(directory)
            assert table_rows(db) == expected, (
                f"iteration {iteration}: rows drifted across a DDL crash "
                f"at {failpoint}"
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
    from repro.engine import txn_scope

    with txn_scope(txn):
        db.execute("update t set v = 'staged' where id = 1")
    db.execute("update t set v = 'winner' where id = 1")
    with pytest.raises(WriteConflictError):
        db.transactions.commit(txn)
    assert durability.wal.appends == appends_before + 1  # only the winner
    durability.close()
    recovered, _ = durable_db(tmp_path)
    assert table_rows(recovered) == [(1, "winner")]
