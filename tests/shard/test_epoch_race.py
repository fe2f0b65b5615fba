"""The epoch-broadcast race: concurrent SELECTs vs a policy-epoch writer.

The fence contract under test: a scatter never mixes shard responses from
two policy epochs, and once an epoch bump has been acknowledged to the
writer, no later query is answered from a stale epoch (stale bitmaps and
memos die with the epoch — cache keys embed it).  Readers hammer the wire
protocol from real threads while a writer drives
:meth:`~repro.shard.coordinator.ShardCoordinator.bump_epoch` through the
event loop; every ``query`` response carries the epoch it executed under,
which the readers check against the highest epoch acked *before* the
request was sent.

A breached fence surfaces in two ways, both asserted: a split-epoch scatter
increments ``repro_shard_epoch_retries_total`` (and raises after three
straddles), and a stale answer shows an epoch below the acked floor.
The controlled tail round then pins the invalidation accounting: one
bump must invalidate exactly one cached plan on the coordinator's local
replica and on every shard — the ``repro_epoch_invalidations`` counters
agree across the whole deployment.

A second race has no cooperating writer at all: a thread issues index DDL
straight on the coordinator's replica — an operator's session, not a
coordinator call — while wire clients scatter and look keys up.  Every
statement must still answer with the single-node rows: the coordinator
ships the DDL by itself, at the latest when a scatter finds the replica's
catalog ahead of the shards' and retries.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.server import AsyncQueryServer, Client
from repro.shard import ShardCoordinator, WorldRecipe

SHARDS = 3
READERS = 4
QUERIES_PER_READER = 30
BUMPS = 8

#: Routed ``scatter_rows`` — every response's epoch comes from the shards.
SCATTER_SQL = "select watch_id, beats from sensed_data where beats > 60"
#: ORDER BY/LIMIT forces the ``local`` route — exercises the replica too.
LOCAL_SQL = "select watch_id from sensed_data order by watch_id limit 3"

RECIPE = WorldRecipe.for_patients(
    patients=12, samples=4, grants=(("demo", "p6"),)
)


@pytest.fixture()
def deployment():
    coordinator = ShardCoordinator(RECIPE, SHARDS)
    server = AsyncQueryServer(coordinator, max_concurrent=READERS + 2)
    with server:
        yield server, coordinator
    coordinator.close()


def _counter(coordinator: ShardCoordinator, name: str) -> int:
    return int(coordinator.metrics.counter(name).value())


def _shard_stats(server: AsyncQueryServer, coordinator: ShardCoordinator):
    return server.submit(coordinator.stats()).result(timeout=30)


def test_epoch_bump_race_never_serves_stale_epochs(deployment) -> None:
    server, coordinator = deployment
    epoch_floor = coordinator.admin.policy_epoch
    floor_lock = threading.Lock()
    failures: list[str] = []
    start_gate = threading.Event()

    def reader(index: int) -> None:
        try:
            with Client(*server.address) as client:
                client.hello("demo", "p6")
                start_gate.wait()
                for iteration in range(QUERIES_PER_READER):
                    with floor_lock:
                        floor = epoch_floor
                    answer = client.query(SCATTER_SQL)
                    epoch = answer.epoch
                    if answer.route != "scatter_rows":
                        failures.append(
                            f"reader{index}: unexpected route {answer.route!r}"
                        )
                    if epoch < floor:
                        failures.append(
                            f"reader{index} iteration {iteration}: response "
                            f"epoch {epoch} below acked floor {floor} — a "
                            f"shard answered from a stale epoch"
                        )
        except Exception as exc:  # noqa: BLE001 - surfaced via failures
            failures.append(f"reader{index}: {type(exc).__name__}: {exc}")

    def writer() -> None:
        nonlocal epoch_floor
        start_gate.wait()
        try:
            for _ in range(BUMPS):
                acked = server.submit(coordinator.bump_epoch()).result(
                    timeout=30
                )
                with floor_lock:
                    epoch_floor = acked
        except Exception as exc:  # noqa: BLE001
            failures.append(f"writer: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=reader, args=(index,))
        for index in range(READERS)
    ]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    start_gate.set()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress thread hung"

    assert failures == [], "\n".join(failures)
    # The fence held: no scatter ever straddled two epochs, so the retry
    # path (and its terminal SplitEpochError) never fired.
    assert _counter(coordinator, "repro_shard_epoch_retries_total") == 0
    assert coordinator.epoch_broadcasts == BUMPS

    stats = _shard_stats(server, coordinator)
    final_epoch = coordinator.admin.policy_epoch
    for shard in stats["shards"]:
        assert shard["epoch"] == final_epoch, (
            f"shard {shard['shard']} stuck at epoch {shard['epoch']}, "
            f"coordinator at {final_epoch}"
        )
        assert shard["epoch_bumps"] == BUMPS


def test_epoch_invalidation_counts_match_across_deployment(deployment) -> None:
    """One controlled round: cache a plan everywhere, bump once, re-prepare
    everywhere.  Every shard and the coordinator's local replica must each
    report exactly one epoch invalidation for the bump."""
    server, coordinator = deployment
    with Client(*server.address) as client:
        client.hello("demo", "p6")
        # Flush any construction-time staleness and cache one plan per
        # shard (scatter) and one on the local replica (local route).
        client.query(SCATTER_SQL)
        client.query(LOCAL_SQL)

        before_local = _counter(coordinator, "repro_epoch_invalidations_total")
        before_shards = {
            shard["shard"]: shard["epoch_invalidations"]
            for shard in _shard_stats(server, coordinator)["shards"]
        }

        server.submit(coordinator.bump_epoch()).result(timeout=30)
        client.query(SCATTER_SQL)
        client.query(LOCAL_SQL)

        after_local = _counter(coordinator, "repro_epoch_invalidations_total")
        after_shards = {
            shard["shard"]: shard["epoch_invalidations"]
            for shard in _shard_stats(server, coordinator)["shards"]
        }

    deltas = {
        shard: after_shards[shard] - before_shards[shard]
        for shard in after_shards
    }
    assert deltas == {shard: 1 for shard in range(SHARDS)}, (
        f"per-shard invalidations diverged: {deltas}"
    )
    assert after_local - before_local == 1, (
        "coordinator replica invalidations disagree with the shards"
    )


POINT_SQL = "select beats from sensed_data where watch_id = ? and timestamp = ?"
DDL_ROUNDS = 10


def test_replica_index_ddl_race_never_fails_a_statement(deployment) -> None:
    from repro.shard.recipe import build_world

    server, coordinator = deployment
    reference = build_world(RECIPE)
    expected_scatter = sorted(reference.monitor.execute(SCATTER_SQL, "p6").rows)
    keys = [list(row[:2]) for row in reference.database.table("sensed_data").rows]
    expected_point = {
        tuple(key): reference.monitor.execute(POINT_SQL, "p6", params=key).rows
        for key in keys
    }
    failures: list[str] = []
    progress = [0] * READERS
    stop = threading.Event()

    def reader(index: int) -> None:
        try:
            with Client(*server.address) as client:
                client.hello("demo", "p6")
                while not stop.is_set():
                    key = keys[(progress[index] * READERS + index) % len(keys)]
                    scatter, point = client.query(SCATTER_SQL), client.query(POINT_SQL, key)
                    if sorted(map(tuple, scatter.rows)) != expected_scatter:
                        failures.append(f"reader{index}: scatter rows moved")
                    if [tuple(r) for r in point.rows] != expected_point[tuple(key)]:
                        failures.append(f"reader{index}: lookup {key} rows moved")
                    if (scatter.route, point.route) != ("scatter_rows", "single"):
                        failures.append(f"reader{index}: routes {scatter.route}/{point.route}")
                    progress[index] += 1
        except Exception as exc:  # noqa: BLE001 - surfaced via failures
            failures.append(f"reader{index}: {type(exc).__name__}: {exc}")
            progress[index] = 10**9  # never hold the writer up

    def ddl_writer() -> None:
        database = coordinator.database
        try:
            for round_ in range(DDL_ROUNDS):
                # One DDL per reader round trip at most, so a statement is
                # straddled once, not EPOCH_RETRIES times in a row.
                seen = list(progress)
                while any(now <= then for now, then in zip(progress, seen)):
                    stop.wait(0.001)
                if round_ % 2 == 0:
                    database.execute(
                        "create index i_race on sensed_data (watch_id, timestamp)"
                    )
                else:
                    database.execute("drop index i_race")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"ddl writer: {type(exc).__name__}: {exc}")
        finally:
            stop.set()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
    threads.append(threading.Thread(target=ddl_writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # more interleavings of DDL thread and loop
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress thread hung"
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert failures == [], "\n".join(failures[:10])

    # Every DDL was shipped by a reader's statement, none by a bump_epoch().
    with Client(*server.address) as client:
        client.hello("demo", "p6")
        client.query(SCATTER_SQL)
    assert coordinator.epoch_broadcasts >= DDL_ROUNDS // 2
    stats = _shard_stats(server, coordinator)
    replica = {d.name for d in coordinator.database.indexes.definitions()}
    for shard in stats["shards"]:
        assert shard["epoch"] == coordinator.admin.policy_epoch
        assert set(shard["indexes"]["names"]) == replica
