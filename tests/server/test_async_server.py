"""End-to-end tests of the asyncio sharded server over the real wire.

The existing synchronous :class:`~repro.server.client.Client` drives an
:class:`~repro.server.async_server.AsyncQueryServer` fronting a 3-shard
inline deployment, checked against an identical unsharded single-node
world: what is particular to this transport — scatter routes, partial
merges, resync after DML, the ``shards`` stats section.  Everything the
two transports answer alike (verbs, error codes, transactions) is in
``test_wire_battery.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.server import AsyncQueryServer, Client
from repro.shard import ShardCoordinator, WorldRecipe
from repro.shard.recipe import build_world

RECIPE = WorldRecipe.for_patients(
    patients=10, samples=4, grants=(("demo", "p6"), ("demo", "p1"))
)


@pytest.fixture(scope="module")
def server():
    coordinator = ShardCoordinator(RECIPE, 3)
    with AsyncQueryServer(coordinator) as instance:
        yield instance
    coordinator.close()


@pytest.fixture(scope="module")
def reference():
    return build_world(RECIPE)


@pytest.fixture()
def client(server):
    with Client(*server.address) as instance:
        instance.hello("demo", "p6")
        yield instance


def test_scatter_query_matches_single_node(client, reference) -> None:
    sql = "select watch_id, beats from sensed_data where beats >= 60"
    answer = client.query(sql)
    expected = reference.monitor.execute(sql, "p6")
    assert answer.route == "scatter_rows"
    assert answer.epoch is not None
    assert [c.lower() for c in answer.columns] == list(expected.columns)
    assert sorted(answer.rows) == sorted(expected.rows)


def test_aggregate_query_merges_partials(client, reference) -> None:
    sql = "select position, count(*), avg(beats) from sensed_data group by position"
    answer = client.query(sql)
    expected = reference.monitor.execute(sql, "p6")
    assert answer.route == "scatter_agg"
    assert sorted(answer.rows, key=repr) == sorted(expected.rows, key=repr)


def test_local_route_over_the_wire(client, reference) -> None:
    sql = "select watch_id from sensed_data order by watch_id limit 5"
    answer = client.query(sql)
    expected = reference.monitor.execute(sql, "p6")
    assert answer.route == "local"
    assert list(answer.rows) == list(expected.rows)


def test_prepared_statements_scatter_like_adhoc(client) -> None:
    statement = client.prepare("select beats from sensed_data where watch_id = ?")
    bound = client.execute_prepared(statement, ["watch1"])
    adhoc = client.query("select beats from sensed_data where watch_id = ?", ["watch1"])
    assert sorted(bound.rows) == sorted(adhoc.rows)
    client._call({"op": "close_prepared", "statement": statement})


def test_parameterized_query_roundtrip(client, reference) -> None:
    sql = "select watch_id from sensed_data where beats > ?"
    answer = client.query(sql, [70])
    expected = reference.monitor.execute(sql, "p6", params=[70])
    assert sorted(answer.rows) == sorted(expected.rows)


def test_dml_write_is_visible_to_scatters(server) -> None:
    with Client(*server.address) as writer:
        writer.hello("demo", "p6")
        before = writer.query("select count(*) from users").rows[0][0]
        affected = writer.execute(
            "insert into users (user_id, watch_id, nutritional_profile_id) "
            "values ('wired', 'watch1', 2)"
        )
        assert affected == 1
        after = writer.query("select count(*) from users").rows[0][0]
        assert after == before + 1


def test_explain_runs_on_the_local_replica(client) -> None:
    answer = client.execute("explain select watch_id from sensed_data")
    text = "\n".join(row[0] for row in answer.rows)
    assert "sensed_data" in text


def test_stats_exposes_the_shards_section(server, client) -> None:
    client.query("select watch_id from users")
    response = client._call({"op": "stats"})
    stats = response["stats"]
    assert stats["server"]["loop"] == "asyncio"
    shards = stats["shards"]
    assert shards["shard_count"] == 3
    assert len(shards["shards"]) == 3
    assert shards["routes"].get("scatter_rows", 0) >= 1
    assert stats["lock"] == shards["fence"]
    # The exposition carries the sharding metric families.
    metrics = response["metrics"]
    for family in (
        "repro_shard_queries_total",
        "repro_shard_fanout_total",
        "repro_shard_seconds",
        "repro_requests_total",
    ):
        assert family in metrics, f"{family} missing from exposition"


def test_eight_concurrent_clients_agree_with_single_node(
    server, reference
) -> None:
    sql = "select watch_id, beats from sensed_data where beats > 55"
    expected = sorted(reference.monitor.execute(sql, "p6").rows)
    failures: list[str] = []

    def worker(index: int) -> None:
        try:
            with Client(*server.address) as c:
                c.hello("demo", "p6")
                for _ in range(5):
                    answer = c.query(sql)
                    if sorted(answer.rows) != expected:
                        failures.append(f"client{index}: rows diverged")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"client{index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "client thread hung"
    assert failures == [], "\n".join(failures)

