"""Wire-level observability: the ``stats`` scrape tells the truth.

Replays the frozen corpus queries over the wire protocol and checks that
the metrics exposition returned by the ``stats`` verb accounts for every
``complieswith`` invocation the engine itself counted — the independent
ledger the Figure 6 measurements rest on — that ``explain`` over the
wire returns the same plan text the monitor produces directly, and that
both front ends report the same ``transactions`` section.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import COMPLIES_WITH
from repro.engine.wal import DurabilityManager
from repro.fuzz import load_repro
from repro.fuzz.scenario import ScenarioSpec, build_fuzz_scenario
from repro.obs import parse_exposition
from repro.server import AsyncQueryServer, Client, QueryServer
from repro.shard import ShardCoordinator, WorldRecipe

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="module")
def corpus_cases():
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.json")):
        spec, case, _ = load_repro(path)
        assert spec == ScenarioSpec()
        cases.append(case)
    return cases


def test_wire_scrape_accounts_for_every_engine_check(corpus_cases):
    world = build_fuzz_scenario(ScenarioSpec())
    database = world.database
    with QueryServer(world.monitor) as server:
        with Client(*server.address) as client:
            # u0 holds every purpose, so each case runs under its own
            # purpose without tripping authorization.
            client.hello("u0", world.purposes[0])
            engine_before = database.function_calls(COMPLIES_WITH)
            executed = 0
            for case in corpus_cases:
                client.set_purpose(case.purpose)
                client.query(case.sql, case.params or None)
                executed += 1
            engine_delta = (
                database.function_calls(COMPLIES_WITH) - engine_before
            )
            samples = parse_exposition(client.metrics())
    assert executed == len(corpus_cases)
    assert samples["repro_complieswith_total"] == engine_delta
    assert samples['repro_queries_total{outcome="ok"}'] == executed
    assert samples["repro_query_seconds_count"] == executed
    # The memo split is internally consistent: hits never exceed checks.
    assert 0 <= samples["repro_complieswith_memo_hits_total"] <= engine_delta


def test_wire_explain_matches_monitor_explain():
    world = build_fuzz_scenario(ScenarioSpec())
    sql = "select distinct watch_id from sensed_data"
    direct = [row[0] for row in world.monitor.explain(sql, "p6").rows]
    with QueryServer(world.monitor) as server:
        with Client(*server.address) as client:
            client.hello("u0", "p6")
            over_wire = client.explain(sql)
    assert over_wire == direct


def _threaded_front_end():
    world = build_fuzz_scenario(ScenarioSpec(patients=4, samples=2))
    return QueryServer(world.monitor), None


def _async_front_end():
    recipe = WorldRecipe.for_patients(patients=4, samples=2)
    coordinator = ShardCoordinator(recipe, 2)
    return AsyncQueryServer(coordinator), coordinator


@pytest.mark.parametrize("front_end", [_threaded_front_end, _async_front_end])
def test_stats_transactions_section_shape(front_end, tmp_path):
    """What ``benchmarks/e2e`` reads its MVCC and WAL counters from."""
    server, coordinator = front_end()
    durability = DurabilityManager(server.monitor.database, tmp_path)
    try:
        with server, Client(*server.address) as client:
            transactions = client.stats()["transactions"]
    finally:
        durability.close()
        if coordinator is not None:
            coordinator.close()
    assert set(transactions) == {"manager", "wal"}
    assert set(transactions["manager"]) == {
        "begun",
        "committed",
        "rolled_back",
        "conflicts",
        "catalog_conflicts",
        "rebased",
        "active",
    }
    assert {"appends", "syncs", "checkpoints"} <= set(transactions["wal"])


def test_wal_stats_tell_a_delta_commit_from_a_whole_table_fallback(tmp_path):
    """An operator can see a table silently falling back to ``replace``:
    the ``wal`` section and ``repro_wal_bytes_total`` split records and
    bytes by the costliest row effect a record carries."""
    world = build_fuzz_scenario(ScenarioSpec(patients=4, samples=2))
    database = world.database
    durability = DurabilityManager(database, tmp_path)
    try:
        with QueryServer(world.monitor) as server:
            with Client(*server.address) as client:
                client.hello("u0", world.purposes[0])
                idle = client.stats()["transactions"]["wal"]
                # Autocommit UPDATE of a few rows: a delta record.
                database.execute(
                    "update sensed_data set beats = 1 where watch_id = 'watch1'"
                )
                # Assigning every row: nothing smaller than the table.
                database.execute("update sensed_data set beats = 2")
                wal = client.stats()["transactions"]["wal"]
                samples = parse_exposition(client.metrics())
    finally:
        durability.close()
    assert idle["records"] == {"append": 0, "delta": 0, "replace": 0}
    assert wal["records"]["delta"] == 1 and wal["records"]["replace"] == 1
    assert 0 < wal["record_bytes"]["delta"] < wal["record_bytes"]["replace"]
    assert wal["bytes"] >= sum(wal["record_bytes"].values())
    for op in ("append", "delta", "replace"):
        assert samples[f'repro_wal_bytes_total{{op="{op}"}}'] == wal["record_bytes"][op]
    assert samples['repro_wal_total{event="append"}'] == wal["appends"]
