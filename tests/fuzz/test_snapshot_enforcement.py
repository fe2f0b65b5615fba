"""Differential testing of snapshot-scoped enforcement under policy churn.

:class:`~repro.fuzz.schedules.ScheduleRunner` pins a reader transaction and
interleaves committed policy-mask churn, epoch bumps and DML between its
reads; every pinned read must reproduce the serial frozen-policy reference
exactly, and a fresh post-churn read must agree with the oracle recomputed
under the churned state.

Three layers of coverage:

* the frozen regression corpus replayed as schedules on every test run
  (tier-1),
* a quick generated batch plus the live-threads tests — policy churn, and
  delta commits over revalidated policy bitmaps (tier-1),
* a slow-marked 500-case seed-2015 campaign — the acceptance headline:
  zero enforcement disagreements under concurrent policy churn.
"""

from __future__ import annotations

import random
import threading
from pathlib import Path

import pytest

from repro.core import EnforcementMonitor
from repro.engine import txn_scope
from repro.fuzz import (
    FuzzQueryGenerator,
    ScheduleRunner,
    load_repro,
)
from repro.fuzz.runner import normalize_rows
from repro.fuzz.scenario import ScenarioSpec, build_fuzz_scenario
from repro.workload.policies import scattered_policy

CAMPAIGN_SEED = 2015
CAMPAIGN_CASES = 500
CHURN_STEPS = 4

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: Smaller world than the default spec: schedules re-run the pinned reader
#: after every churn step, so per-case cost is ~(steps + 2) executions.
SCHEDULE_SPEC = ScenarioSpec(patients=12, samples=4, user_count=4)


@pytest.fixture(scope="module")
def schedule_runner():
    """One world shared by all schedules (each schedule re-references at
    pin time, so earlier schedules' churn cannot invalidate later ones)."""
    with ScheduleRunner(spec=SCHEDULE_SPEC) as runner:
        yield runner


# -- corpus as schedules ------------------------------------------------------


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_case_pins_clean_under_churn(schedule_runner, path: Path) -> None:
    _spec, case, recorded_failures = load_repro(path)
    assert recorded_failures == []
    report = schedule_runner.run_schedule(case, churn_steps=CHURN_STEPS)
    assert report.ok, report.describe()


# -- generated batches --------------------------------------------------------


def test_quick_schedule_batch(schedule_runner) -> None:
    generator = FuzzQueryGenerator.for_world(
        schedule_runner.world, seed=CAMPAIGN_SEED
    )
    failures = []
    for report in schedule_runner.run_schedules(
        generator.cases(25), churn_steps=CHURN_STEPS
    ):
        if not report.ok:
            failures.append(report.describe())
    assert not failures, "\n\n".join(failures)


@pytest.mark.slow
def test_campaign_500_cases_seed_2015(schedule_runner) -> None:
    """The acceptance campaign: 500 seed-2015 cases, churn between every
    pinned read, zero enforcement disagreements."""
    generator = FuzzQueryGenerator.for_world(
        schedule_runner.world, seed=CAMPAIGN_SEED
    )
    failures = []
    ran = 0
    for report in schedule_runner.run_schedules(
        generator.cases(CAMPAIGN_CASES), churn_steps=CHURN_STEPS
    ):
        ran += 1
        if not report.ok:
            failures.append(report.describe())
    assert ran == CAMPAIGN_CASES
    assert not failures, (
        f"{len(failures)} of {CAMPAIGN_CASES} schedules disagreed:\n\n"
        + "\n\n".join(failures[:10])
    )


# -- live concurrency ---------------------------------------------------------


def test_pinned_reader_survives_live_policy_churn_threads() -> None:
    """A reader thread re-executes under its pinned snapshot while a writer
    thread churns policy masks as fast as it can commit them."""
    world = build_fuzz_scenario(ScenarioSpec(patients=10, samples=4))
    monitor = world.monitor
    sql = "select watch_id, beats from sensed_data where beats >= 60"
    txn = world.database.transactions.begin()
    with txn_scope(txn):
        reference = normalize_rows(monitor.execute(sql, "p6").rows)

    stop = threading.Event()
    churned = 0

    def churn() -> None:
        nonlocal churned
        rng = random.Random(7)
        while not stop.is_set():
            world.admin.apply_policy(
                scattered_policy(
                    "sensed_data",
                    compliant=rng.random() < 0.5,
                    rule_count=rng.randint(1, 3),
                    pass_all_position=rng.randint(0, 2),
                )
            )
            churned += 1

    writer = threading.Thread(target=churn)
    writer.start()
    mismatches = []
    try:
        for _ in range(40):
            with txn_scope(txn):
                rows = normalize_rows(monitor.execute(sql, "p6").rows)
            if rows != reference:
                mismatches.append(len(rows))
    finally:
        stop.set()
        writer.join()
        world.database.transactions.rollback(txn)
    assert churned > 0, "the churn thread never committed a policy write"
    assert not mismatches, (
        f"pinned reads leaked concurrent policy churn: row counts "
        f"{mismatches} != {len(reference)}"
    )


def test_pinned_reader_survives_live_revalidated_bitmaps_threads() -> None:
    """A reader thread re-executes under its pinned snapshot while a writer
    thread commits one-row deltas (beats, policy cells, inserts) and reads
    at head after each, so the shared policy-bitmap entries are revalidated
    back and forth between the two versions (DESIGN.md §11)."""
    world = build_fuzz_scenario(ScenarioSpec(patients=10, samples=4))
    database, monitor = world.database, world.monitor
    sql = "select watch_id, beats from sensed_data where beats >= 60"
    txn = database.transactions.begin()
    with txn_scope(txn):
        reference = normalize_rows(monitor.execute(sql, "p6").rows)
    keys = [row[:2] for row in database.table("sensed_data").rows]
    masks = sorted({row[-1].bits() for row in database.table("sensed_data").rows})
    revalidated = database.policy_bitmaps.stats()["revalidated"]

    stop = threading.Event()
    committed = 0

    def write() -> None:
        nonlocal committed
        rng = random.Random(11)
        while not stop.is_set():
            watch, timestamp = rng.choice(keys)
            where = f"watch_id = '{watch}' and timestamp = {timestamp}"
            database.execute(
                rng.choice(
                    (
                        f"update sensed_data set beats = {rng.randint(40, 90)} "
                        f"where {where}",
                        f"update sensed_data set policy = "
                        f"b'{rng.choice(masks)}' where {where}",
                        f"insert into sensed_data values ('{watch}', "
                        f"{100_000 + committed}, 36.6, 'gym', 70, "
                        f"b'{rng.choice(masks)}')",
                    )
                )
            )
            monitor.execute(sql, "p6")
            committed += 1

    writer = threading.Thread(target=write)
    writer.start()
    mismatches = []
    try:
        for _ in range(40):
            with txn_scope(txn):
                rows = normalize_rows(monitor.execute(sql, "p6").rows)
            if rows != reference:
                mismatches.append(len(rows))
    finally:
        stop.set()
        writer.join()
        database.transactions.rollback(txn)
    assert committed > 0, "the writer thread never committed"
    assert database.policy_bitmaps.stats()["revalidated"] > revalidated
    assert not mismatches, (
        f"pinned reads leaked concurrent commits: row counts "
        f"{mismatches} != {len(reference)}"
    )
    # Head agrees with the paper's per-row pipeline after the churn.
    per_row = EnforcementMonitor(world.admin, optimizer="off")
    assert normalize_rows(monitor.execute(sql, "p6").rows) == normalize_rows(
        per_row.execute(sql, "p6").rows
    )


# -- index DDL reaching sharded replicas ----------------------------------------


def test_schedule_index_ddl_reaches_sharded_replicas() -> None:
    """``ddl-index`` steps also run on the replica of shard counts 1 and 3
    (pinned modes) and a default-mode 3-shard deployment, with no epoch
    bump; every case answers through them as before the schedule."""
    with ScheduleRunner(spec=SCHEDULE_SPEC, sharded_counts=(1, 3)) as runner:
        generator = FuzzQueryGenerator.for_world(runner.world, seed=CAMPAIGN_SEED)
        reports = list(runner.run_schedules(generator.cases(12), churn_steps=6))
        shipped = [step for r in reports for step in r.steps if "replicas[" in step]
        assert any("create index" in step for step in shipped)
        assert any("drop index" in step for step in shipped)
        failures = [report.describe() for report in reports if not report.ok]
        assert not failures, "\n\n".join(failures)
        for (count, _pinned), server in runner._sharded.items():
            stats = server.submit(server.coordinator.stats()).result(timeout=30)
            assert stats["epoch_broadcasts"] > 0
            replica = {d.name for d in server.coordinator.database.indexes.definitions()}
            for shard in stats["shards"]:
                assert set(shard["indexes"]["names"]) == replica
