"""Differential testing of the async sharded deployment.

Every case executes through the in-process and wire-protocol paths *and*
through :class:`~repro.server.async_server.AsyncQueryServer` deployments
fronting :class:`~repro.shard.coordinator.ShardCoordinator` at shard
counts 1 and 3 (``DifferentialRunner(sharded_counts=(1, 3))``).  The
sharded paths must agree with the oracle on rows, columns and denial
outcomes, and — because sharded deployments pin ``optimizer="off"``,
where every guard conjunct is evaluated per row and that count is exactly
conserved under row partitioning — must agree with *each other* on
compliance-check counts across shard counts.  A third deployment — 3
shards running the full pipeline, ``sharded-3-default`` — is
compared on rows only, and before every case a seeded ``ddl-index`` step
creates or drops an index straight on each replica with no epoch bump, so
catalog shipping runs under every case and the default-mode shards probe
what was shipped.

Two layers of coverage:

* the frozen 37-file regression corpus replayed through the sharded paths
  on every test run (tier-1), and
* a slow-marked 500-case seed-2015 campaign (the nightly headline run).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz import DifferentialRunner, FuzzQueryGenerator, load_repro
from repro.fuzz.scenario import ScenarioSpec

CAMPAIGN_SEED = 2015
CAMPAIGN_CASES = 500
SHARD_COUNTS = (1, 3)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def sharded_runner():
    """One world plus async sharded deployments at counts 1 and 3.

    The in-process paths stay enabled so every corpus case is checked
    single-node *and* sharded in the same run; the sync wire server is
    skipped here (tier-1 already replays it in test_corpus_replay).
    """
    with DifferentialRunner(
        spec=ScenarioSpec(), use_server=False, sharded_counts=SHARD_COUNTS
    ) as runner:
        yield runner


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean_through_shards(sharded_runner, path: Path) -> None:
    _, case, _ = load_repro(path)
    report = sharded_runner.run_case(case)
    assert report.ok, report.describe()


def test_sharded_paths_are_reported_per_case(sharded_runner) -> None:
    """The runner actually executed the sharded paths, not just the local
    ones — a regression guard for the opt-in wiring."""
    case = FuzzQueryGenerator.for_world(
        sharded_runner.world, seed=CAMPAIGN_SEED
    ).case(0)
    report = sharded_runner.run_case(case)
    names = {path.path for path in report.paths}
    assert {f"sharded-{count}" for count in SHARD_COUNTS} <= names
    assert f"sharded-{max(SHARD_COUNTS)}-default" in names


def test_replica_index_ddl_was_shipped_under_the_cases(sharded_runner) -> None:
    """Each case toggles ``idx_fuzz_*`` on the replicas, nobody calls
    ``bump_epoch()``, and every deployment's shards end level with their
    replica."""
    generator = FuzzQueryGenerator.for_world(sharded_runner.world, seed=7)
    cases = list(generator.cases(6))
    # One lookup on sensed_data's full key, so an index path is on offer.
    watch, timestamp = sharded_runner.world.database.table("sensed_data").rows[0][:2]
    cases[-1] = cases[-1].with_sql(
        "select beats from sensed_data where watch_id = :w and timestamp = :t",
        {"w": watch, "t": timestamp},
    )
    for case in cases:
        report = sharded_runner.run_case(case)
        assert report.ok, report.describe()
    assert len(sharded_runner._sharded) == len(SHARD_COUNTS) + 1
    for (_, pinned), server in sharded_runner._sharded.items():
        coordinator = server.coordinator
        stats = server.submit(coordinator.stats()).result(timeout=30)
        assert stats["epoch_broadcasts"] >= 6
        replica = {d.name for d in coordinator.database.indexes.definitions()}
        for shard in stats["shards"]:
            assert shard["catalog_version"] == stats["catalog_version"]
            assert set(shard["indexes"]["names"]) == replica
        hits = sum(shard["indexes"]["hits"] for shard in stats["shards"])
        # Index paths hang off the full pipeline: only the default leg probes.
        assert (hits > 0) is not pinned


def test_sharded_deployments_partition_without_loss(sharded_runner) -> None:
    """Replica worlds rebuild from the same spec: same tables, the same
    rows in total across shards, and one internally consistent epoch per
    deployment (the primary world's epoch moves independently — the
    metamorphic invariants bump it — so it is *not* compared here)."""
    primary = sharded_runner.world
    for count in SHARD_COUNTS:
        server = sharded_runner.sharded_server(count)
        coordinator = server.coordinator
        assert coordinator.shard_count == count
        shard_stats = server.submit(coordinator.stats()).result(timeout=30)
        assert len(shard_stats["shards"]) == count
        assert {shard["epoch"] for shard in shard_stats["shards"]} == {
            coordinator.admin.policy_epoch
        }
        # Iterate the replica's catalog: the primary additionally carries
        # the runner's audit-log table, which is not part of the recipe.
        # Protected tables are partitioned; the meta-tables hold each
        # shard's taxonomy and grants, so every shard keeps them whole.
        protected = coordinator.admin.target_tables()
        for name in coordinator.database.table_names():
            replica_total = len(coordinator.database.table(name))
            held = [shard["rows"][name] for shard in shard_stats["shards"]]
            assert replica_total == len(primary.database.table(name))
            if name not in protected:
                assert held == [replica_total] * count, f"{name}: {held}"
                continue
            assert sum(held) == replica_total, (
                f"{name}: shards hold {sum(held)} rows, replica "
                f"{replica_total} — partitioning lost or duplicated rows"
            )


@pytest.mark.slow
def test_sharded_campaign_500_cases_seed_2015() -> None:
    """The headline acceptance campaign: 500 seed-2015 cases, every one
    executed single-node and through shard counts 1 and 3, zero
    disagreements tolerated."""
    with DifferentialRunner(
        spec=ScenarioSpec(), use_server=True, sharded_counts=SHARD_COUNTS
    ) as runner:
        generator = FuzzQueryGenerator.for_world(
            runner.world, seed=CAMPAIGN_SEED
        )
        failures = [
            report.describe()
            for report in map(runner.run_case, generator.cases(CAMPAIGN_CASES))
            if not report.ok
        ]
    assert failures == [], "\n\n".join(failures)
