"""Bounded differential-fuzzing smoke: 50 seeded cases on every test run.

Tier-1 runs a fixed 50-case slice of the seed-2015 stream (in-process
paths only, to stay well under ten seconds); the open-ended variant with
the wire-protocol paths included is marked ``slow`` and runs in the
nightly fuzz job.  Also covers the fuzzer's own guarantees: per-case
determinism, global-random independence, repro-file round-trips, and —
the self-tests that make the oracle trustworthy — that a deliberately
injected rewriter bug is caught, minimized and replayable, that an
injected executor bug is caught at all, and that the shrinker stays sound
under a reference engine more permissive than the one it checks.
"""

from __future__ import annotations

import random

import pytest

from repro.core import AuditLog
from repro.errors import ReproError, UnauthorizedPurposeError
from repro.fuzz import (
    DifferentialRunner,
    FuzzQueryGenerator,
    build_fuzz_scenario,
    inject_bug,
    load_repro,
    replay,
    save_repro,
    shrink,
)
from repro.fuzz.generator import FUZZ_KINDS
from repro.fuzz.runner import normalize_rows
from repro.fuzz.shrinker import candidates
from repro.fuzz.scenario import ScenarioSpec

SMOKE_SEED = 2015
SMOKE_CASES = 50


@pytest.fixture(scope="module")
def world():
    return build_fuzz_scenario(ScenarioSpec())


@pytest.fixture(scope="module")
def runner(world):
    with DifferentialRunner(world=world, use_server=False) as instance:
        yield instance


def test_smoke_campaign_is_clean(world, runner) -> None:
    generator = FuzzQueryGenerator.for_world(world, seed=SMOKE_SEED)
    failures = [
        report.describe()
        for report in map(runner.run_case, generator.cases(SMOKE_CASES))
        if not report.ok
    ]
    assert failures == [], "\n\n".join(failures)


def test_generator_is_deterministic_per_case() -> None:
    generator = FuzzQueryGenerator(seed=SMOKE_SEED)
    eager = [generator.case(i) for i in range(30)]
    # Regenerating any case in isolation (no predecessor generated) must
    # reproduce it exactly — the property replay files depend on.
    fresh = FuzzQueryGenerator(seed=SMOKE_SEED)
    assert [fresh.case(i) for i in reversed(range(30))] == list(reversed(eager))


def test_generator_never_touches_global_random() -> None:
    random.seed(4242)
    before = random.getstate()
    FuzzQueryGenerator(seed=SMOKE_SEED).case(7)
    assert random.getstate() == before


def test_cases_embed_seed_and_index() -> None:
    case = FuzzQueryGenerator(seed="abc").case(12)
    assert (case.seed, case.index) == ("abc", 12)
    assert case.replay_token == "abc:12"
    assert case.kind in FUZZ_KINDS


def test_repro_file_round_trip(tmp_path) -> None:
    case = FuzzQueryGenerator(seed=SMOKE_SEED).case(3)
    spec = ScenarioSpec()
    path = save_repro(tmp_path / "case.json", spec, case, ["some failure"])
    loaded_spec, loaded_case, failures = load_repro(path)
    assert loaded_spec == spec
    assert loaded_case == case
    assert failures == ["some failure"]


def test_injected_bug_is_caught_minimized_and_replayable(
    world, runner, tmp_path
) -> None:
    """The acceptance self-test: a rewriter that drops one compliance
    conjunct must produce a disagreement, shrink to a smaller failing SQL,
    survive a save/replay round trip, and disappear once the bug does."""
    generator = FuzzQueryGenerator.for_world(world, seed=SMOKE_SEED)
    with inject_bug("drop-conjunct"):
        failing = None
        for case in generator.cases(200):
            report = runner.run_case(case)
            if not report.ok:
                failing = (case, report)
                break
        assert failing is not None, "injected bug went undetected"
        case, report = failing
        minimized = shrink(runner, case)
        assert len(minimized.sql) <= len(case.sql)
        final = runner.run_case(minimized)
        assert not final.ok, "shrinking lost the failure"
        path = save_repro(
            tmp_path / "bug.json", world.spec, minimized, final.failures
        )
        buggy_replay, recorded = replay(path, use_server=False)
        assert not buggy_replay.ok
        assert recorded == final.failures
    runner.world.monitor.clear_plan_cache()
    fixed_replay, _ = replay(path, use_server=False)
    assert fixed_replay.ok, "repro still fails after the bug is removed"


def test_injected_executor_bug_is_caught(world, runner) -> None:
    """A vectorized ``>=`` that evaluates as ``>`` must produce a
    disagreement.  It did not while the oracle ran its expectation on the
    engine's own executor — both sides were wrong together."""
    generator = FuzzQueryGenerator.for_world(world, seed=SMOKE_SEED)
    with inject_bug("ge-as-gt"):
        caught = [
            report.case.sql
            for report in map(runner.run_case, generator.cases(SMOKE_CASES))
            if not report.ok
        ]
    runner.world.monitor.clear_plan_cache()
    assert caught, "injected executor bug went undetected"
    assert all(">=" in sql for sql in caught), caught


def test_shrinker_stays_sound_under_the_permissive_reference(runner) -> None:
    """sqlite accepts statements this engine refuses or leaves undefined;
    none of them may pass for a smaller reproduction."""
    case = FuzzQueryGenerator(seed=SMOKE_SEED).case(3)
    # A select-list alias in WHERE binds in sqlite, not here: validity is
    # the production binder's call, so the oracle errors with every path.
    aliased = runner.run_case(
        case.with_sql("select beats as b from sensed_data where b > 100")
    )
    assert aliased.ok and all(p.outcome == "error" for p in aliased.paths)
    # What only sqlite refuses is a reported disagreement, not a crash.
    foreign = runner.run_case(
        case.with_sql("select greatest(beats, 100) from sensed_data")
    )
    assert any("sqlite reference" in failure for failure in foreign.failures)
    # Ungrouping ``position, min(beats)`` leaves the row ``position`` is
    # read from to the engine — sqlite and this one differ — so it is not
    # a candidate until the bare column has been dropped.
    grouped = "select position, min(beats) from sensed_data group by position"
    offered = [c.sql for c in candidates(case.with_sql(grouped))]
    assert "select position, min(beats) from sensed_data" not in offered
    assert "select min(beats) from sensed_data group by position" in offered
    (ungrouped,) = candidates(case.with_sql(offered[0]))
    assert ungrouped.sql == "select min(beats) from sensed_data"


class TestOptimizerEquivalence:
    """Optimizer-equivalence mode: every smoke case behaves identically
    with the pass pipeline on and off — same rows/columns, same denial or
    error outcome, same audit trail.  ``complieswith`` counts legitimately
    differ between the per-row and bitmap evaluation models, so they are
    collected and reported, never asserted equal."""

    @pytest.fixture(scope="class")
    def eq_world(self):
        instance = build_fuzz_scenario(ScenarioSpec())
        audit = AuditLog(instance.database)
        instance.monitor.attach_audit(audit)
        return instance, audit

    @staticmethod
    def _run_mode(world, audit, case, mode):
        monitor = world.monitor
        monitor.set_optimizer(mode)
        monitor.clear_plan_cache()
        monitor.clear_policy_bitmaps()
        audit_before = len(audit)
        checks = 0
        try:
            report = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user, params=case.params or None
            )
        except UnauthorizedPurposeError:
            outcome = ("denied", None, None)
        except ReproError as exc:
            outcome = ("error", type(exc).__name__, None)
        else:
            outcome = (
                "rows",
                tuple(c.lower() for c in report.result.columns),
                tuple(normalize_rows(report.result.rows)),
            )
            checks = report.compliance_checks
        # The audit trail must be mode-independent except for the check
        # counter, which tracks the evaluation model on purpose.
        trail = tuple(
            (r.outcome, r.user, r.purpose, r.rows)
            for r in audit.records[audit_before:]
        )
        return outcome, trail, checks

    def test_smoke_cases_agree_between_modes(self, eq_world, capsys) -> None:
        world, audit = eq_world
        generator = FuzzQueryGenerator.for_world(world, seed=SMOKE_SEED)
        previous = world.monitor.optimizer_mode
        disagreements = []
        checks_off_total = checks_on_total = 0
        try:
            for case in generator.cases(SMOKE_CASES):
                off = self._run_mode(world, audit, case, "off")
                on = self._run_mode(world, audit, case, "on")
                checks_off_total += off[2]
                checks_on_total += on[2]
                if off[:2] != on[:2]:
                    disagreements.append(
                        f"{case.replay_token} ({case.kind}): {case.sql!r}\n"
                        f"  off: {off[:2]}\n  on:  {on[:2]}"
                    )
        finally:
            world.monitor.set_optimizer(previous)
        assert disagreements == [], "\n\n".join(disagreements)
        # Informational only: the whole point of the bitmap pass is that
        # these two totals differ.
        print(
            f"complieswith totals over {SMOKE_CASES} cases: "
            f"off={checks_off_total} on={checks_on_total}"
        )


@pytest.mark.slow
def test_extended_campaign_with_server(world) -> None:
    """The nightly run: 500 cases through all five paths, server included."""
    generator = FuzzQueryGenerator.for_world(world, seed=SMOKE_SEED)
    with DifferentialRunner(world=world, use_server=True) as full_runner:
        for case in generator.cases(500):
            report = full_runner.run_case(case)
            assert report.ok, report.describe()
