"""The engine's write fence (DESIGN.md §8, "Write ordering").

``TransactionManager.exclusive()`` is one re-entrant lock that every commit
and every snapshot pin takes before the manager lock, and that
``Database.execute`` holds around an autocommit INSERT/UPDATE/DELETE from
its read to its commit.  These tests pin what it buys — no committed write
lost to a concurrent autocommit writer — and what it must not cost:
re-entrancy for its holder, rollbacks that never wait, readers that pin
snapshots side by side.
"""

from __future__ import annotations

import threading

from repro.core import (
    AccessControlManager,
    EnforcementMonitor,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
)
from repro.engine.database import Database
from repro.engine.wal import open_database

THREADS = 4
INCREMENTS = 300
#: How long a blocked call is given to (wrongly) get through the fence.
BLOCKED_FOR = 0.2


def _counters(db: Database) -> None:
    db.execute("create table t (id integer primary key, n integer)")
    db.execute(
        "insert into t values "
        + ", ".join(f"({key}, 0)" for key in range(THREADS))
    )


def _counts(db: Database) -> list[int]:
    return [n for _, n in db.execute("select id, n from t order by id").rows]


def _hammer(run) -> None:
    """``THREADS`` threads, each incrementing its own row ``INCREMENTS``
    times through ``run(sql)``."""
    failures: list[BaseException] = []
    start = threading.Barrier(THREADS, timeout=10)

    def worker(key: int) -> None:
        try:
            start.wait()
            for _ in range(INCREMENTS):
                assert run(f"update t set n = n + 1 where id = {key}") == 1
        except BaseException as exc:  # surfaced on the test thread
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(key,)) for key in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures


def test_disjoint_autocommit_increments_lose_nothing() -> None:
    db = Database("fence")
    _counters(db)
    _hammer(db.execute)
    assert _counts(db) == [INCREMENTS] * THREADS


def test_disjoint_update_rows_increments_lose_nothing() -> None:
    """``Table.update_rows`` reads and commits under the fence too, and
    commits only the positions it chose: a concurrent commit to another
    row is never diffed away."""
    db = Database("fence-api")
    _counters(db)
    table = db.table("t")

    def increment(sql: str) -> int:
        key = int(sql.rsplit("=", 1)[1])
        return table.update_rows(
            lambda row: row[0] == key, lambda row: (row[0], row[1] + 1)
        )

    _hammer(increment)
    assert _counts(db) == [INCREMENTS] * THREADS


def _enforced(db: Database) -> EnforcementMonitor:
    _counters(db)
    admin = AccessControlManager(db)
    admin.configure(purposes=PurposeSet([Purpose("p1", "any")]))
    admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
    return EnforcementMonitor(admin)


def test_disjoint_enforced_increments_lose_nothing() -> None:
    db = Database("fence")
    monitor = _enforced(db)
    _hammer(lambda sql: monitor.execute_statement(sql, "p1"))
    assert _counts(db) == [INCREMENTS] * THREADS


def test_enforced_dml_is_rewritten_under_the_fence(monkeypatch) -> None:
    """The signature and the masks it is checked against come from one
    policy state: the rewrite already holds the fence the run commits
    under."""
    from repro.core import dml

    db = Database("fence")
    monitor = _enforced(db)
    held: list[bool] = []
    rewrite = dml.rewrite_statement

    def spy(*args):
        held.append(db.transactions._fence._is_owned())
        return rewrite(*args)

    monkeypatch.setattr(dml, "rewrite_statement", spy)
    assert monitor.execute_statement("update t set n = 5 where id = 2", "p1") == 1
    assert held == [True]
    assert _counts(db)[2] == 5


def _started(call) -> tuple[threading.Thread, threading.Event]:
    """Run ``call`` on a fresh thread; the event is set once it returned."""
    done = threading.Event()

    def body() -> None:
        call()
        done.set()

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, done


def test_exclusive_blocks_begin_commit_and_autocommit_dml_not_rollback() -> None:
    db = Database("fence")
    _counters(db)
    manager = db.transactions
    committing, rolling_back = manager.begin(), manager.begin()
    with manager.exclusive():
        blocked = [
            _started(manager.begin),
            _started(lambda: manager.commit(committing)),
            _started(lambda: db.execute("update t set n = 7 where id = 0")),
        ]
        rollback_thread, rolled_back = _started(lambda: manager.rollback(rolling_back))
        assert rolled_back.wait(5), "rollback waited for the fence"
        for _, done in blocked:
            assert not done.wait(BLOCKED_FOR), "a writer got through the fence"
        assert _counts(db)[0] == 0
    for thread, done in blocked:
        assert done.wait(5)
        thread.join(timeout=5)
    rollback_thread.join(timeout=5)
    assert committing.status == "committed"
    assert rolling_back.status == "aborted"
    assert _counts(db)[0] == 7


def test_fence_is_reentrant_for_its_holder(tmp_path) -> None:
    db, durability = open_database(tmp_path)
    try:
        _counters(db)

        def body() -> None:
            with db.transactions.exclusive():
                db.execute("update t set n = n + 1 where id = 1")
                db.execute("create index t_n on t (n)")
                durability.checkpoint()

        # On a thread, so a deadlock fails the test instead of hanging it.
        thread, done = _started(body)
        assert done.wait(10), "the fence deadlocked its own holder"
        thread.join(timeout=5)
        assert _counts(db) == [0, 1, 0, 0]
        assert [d.name for d in db.indexes.definitions()] == ["t_n"]
        assert durability.stats()["checkpoints"] == 1
    finally:
        durability.close()


def test_readers_pin_snapshots_in_parallel() -> None:
    readers = 2
    db = Database("fence")
    _counters(db)
    inside = threading.Barrier(readers, timeout=5)
    seen: list[list[int]] = []

    def reader() -> None:
        with db.transactions.read_snapshot():
            # Every reader must sit inside its snapshot at once to pass the
            # barrier; a fence held for the whole read would break it.
            inside.wait()
            seen.append(_counts(db))

    threads = [threading.Thread(target=reader) for _ in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=5)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [[0] * THREADS] * readers
    assert db.transactions.active_count() == 0
