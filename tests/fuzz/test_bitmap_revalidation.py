"""Revalidated policy bitmaps under pinned snapshots and delta commits.

A policy posting index whose table's visible row list moved is followed
by tuple identity, not rebuilt (DESIGN.md §11): only the rows a commit replaced or
appended are re-judged.  This battery pins snapshots at several versions,
interleaves commits of every kind — non-policy updates, policy-cell
updates (by SQL, which bumps no epoch, and through ``admin.apply_policy``,
which does), inserts, deletes, purpose grants and multi-statement
transactions — and after each commit re-executes the guarded q1–q8 under
every pinned snapshot and at head.  One entry is thereby revalidated back
and forth between versions, and each outcome (the rows, or the denial)
must equal an ``optimizer="off"`` execution — the paper's per-row
``compliesWith`` pipeline, which uses no bitmap — at the same snapshot.

The tier-1 run is one short seed; the ``slow``-marked campaign runs more
seeds, more pins and longer commit sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import pytest

from repro.core import EnforcementMonitor, Policy
from repro.engine import txn_scope
from repro.errors import AccessControlError
from repro.fuzz.runner import normalize_rows
from repro.workload import (
    AD_HOC_QUERIES,
    apply_experiment_policies,
    build_patients_scenario,
)
from repro.workload.policies import scattered_policy

PURPOSES = ("p1", "p6")
USER = "user0"


@dataclass
class CampaignResult:
    disagreements: list[str] = field(default_factory=list)
    commits: list[str] = field(default_factory=list)
    bitmaps: dict = field(default_factory=dict)


def _outcome(monitor: EnforcementMonitor, sql: str, purpose: str):
    try:
        return normalize_rows(monitor.execute(sql, purpose, user=USER).rows)
    except AccessControlError as exc:
        return type(exc).__name__


#: The commit kinds, drawn in a fresh shuffled order every round, so any
#: run of ``len(KINDS)`` steps commits each kind once.
KINDS = (
    "beats", "policy-cell", "apply-policy", "insert", "delete", "grant", "txn",
)


def _commit(scenario, rng: random.Random, kind: str, step: int) -> str:
    """Commit one write of ``kind``; returns what it did."""
    database, admin = scenario.database, scenario.admin
    rows = database.table("sensed_data").rows
    watch, timestamp = rng.choice(rows)[:2]
    where = f"watch_id = '{watch}' and timestamp = {timestamp}"
    mask = rng.choice(
        sorted({row[-1].bits() for row in rows if row[-1] is not None})
    )
    if kind == "apply-policy":
        rules = scattered_policy(
            "sensed_data",
            compliant=rng.random() < 0.5,
            rule_count=rng.randint(1, 3),
            pass_all_position=rng.randint(0, 2),
        ).rules
        admin.apply_policy(
            Policy("sensed_data", rules, tuple_selector=("watch_id", watch))
        )
        return f"apply_policy watch_id={watch}"
    if kind == "grant":
        if admin.revoke_purpose(USER, "p1"):
            return "revoke p1"
        admin.grant_purpose(USER, "p1")
        return "grant p1"
    if kind == "txn":
        database.begin()
        database.execute(f"update sensed_data set beats = -{step} where {where}")
        database.execute(
            f"update sensed_data set policy = b'{mask}' where watch_id = '{watch}'"
        )
        database.commit()
        return f"txn beats+policy watch_id={watch}"
    sql = {
        "beats": f"update sensed_data set beats = {step} where {where}",
        "policy-cell": f"update sensed_data set policy = b'{mask}' where {where}",
        "insert": (
            f"insert into sensed_data values ('{watch}', {1000 + step}, "
            f"36.6, 'gym', {step}, b'{mask}')"
        ),
        "delete": f"delete from sensed_data where {where}",
    }[kind]
    database.execute(sql)
    return sql


def run_campaign(
    seed: int, steps: int, pin_every: int, patients: int = 6
) -> CampaignResult:
    """Pin, commit, and compare every guarded read to the per-row one."""
    scenario = build_patients_scenario(patients=patients, samples_per_patient=4)
    apply_experiment_policies(scenario, selectivity=0.4, seed=seed)
    scenario.admin.grant_purpose(USER, "p6")
    database = scenario.database
    guarded = scenario.monitor
    reference = EnforcementMonitor(scenario.admin, optimizer="off")
    rng = random.Random(seed)
    result = CampaignResult()
    pins: list = []
    kinds = list(KINDS)
    try:
        for step in range(steps):
            if step % pin_every == 0:
                pins.append(database.transactions.begin())
            if step % len(kinds) == 0:
                rng.shuffle(kinds)
            kind = kinds[step % len(kinds)]
            result.commits.append(_commit(scenario, rng, kind, step))
            for where, txn in [*enumerate(pins), ("head", None)]:
                for query in AD_HOC_QUERIES:
                    for purpose in PURPOSES:
                        with txn_scope(txn):
                            got = _outcome(guarded, query.sql, purpose)
                            want = _outcome(reference, query.sql, purpose)
                        if got != want:
                            result.disagreements.append(
                                f"step {step} ({result.commits[-1]}) pin "
                                f"{where} {query.name}/{purpose}: "
                                f"{got!r} != {want!r}"
                            )
    finally:
        for txn in pins:
            database.transactions.rollback(txn)
    result.bitmaps = database.policy_bitmaps.stats()
    return result


def test_pinned_snapshots_agree_with_per_row_enforcement() -> None:
    result = run_campaign(seed=2015, steps=12, pin_every=4)
    assert not result.disagreements, "\n".join(result.disagreements)
    # The guarded reads really were served by revalidated entries.
    assert result.bitmaps["revalidated"] > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(2015, 2025))
def test_revalidation_campaign(seed: int) -> None:
    result = run_campaign(seed=seed, steps=40, pin_every=6, patients=10)
    assert not result.disagreements, "\n".join(result.disagreements)
    assert result.bitmaps["revalidated"] > 0
