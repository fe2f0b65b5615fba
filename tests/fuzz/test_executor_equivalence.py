"""Differential testing of the executor against the sqlite reference.

The engine's one physical executor (DESIGN.md §12) must be observationally
identical to the oracle's ``sqlite3`` run over policy-pre-filtered tables
(:mod:`repro.fuzz.oracle`): same rows and columns, same denial/error
outcome, and an audit trail that says what happened — one record per
execution carrying the submission's user and purpose, the row count and the
``complieswith`` count the execution reported.

Three layers of coverage:

* every regression-corpus file replayed through the full differential
  harness in both page modes — the default 1 024-row page, which the
  25 × 8-row fuzz world fits into whole, and 7-row pages, where the policy
  guard's offset arithmetic, the id-paged index path and the hash join's
  build-side ``base`` all cross page boundaries,
* a 500-case seed-2015 campaign comparing every generated case and its
  audit records field by field against the reference, and
* the first 200 of those cases again at 7-row pages.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import AuditLog
from repro.engine import DEFAULT_BATCH_SIZE
from repro.errors import ReproError, UnauthorizedPurposeError
from repro.fuzz import (
    DifferentialRunner,
    EnforcementOracle,
    FuzzQueryGenerator,
    build_fuzz_scenario,
    load_repro,
)
from repro.fuzz.runner import normalize_rows
from repro.fuzz.scenario import ScenarioSpec

CAMPAIGN_SEED = 2015
CAMPAIGN_CASES = 500
PAGED_CASES = 200

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))

#: Rows per page in each mode.
PAGE_MODES = {"batch": DEFAULT_BATCH_SIZE, "paged": 7}


@pytest.fixture(scope="module", params=PAGE_MODES)
def mode_runner(request):
    """One full differential harness (server included) per page mode."""
    with DifferentialRunner(spec=ScenarioSpec()) as runner:
        runner.world.monitor.batch_size = PAGE_MODES[request.param]
        yield runner


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean_in_both_modes(mode_runner, path: Path) -> None:
    _, case, _ = load_repro(path)
    report = mode_runner.run_case(case)
    assert report.ok, report.describe()


class TestExecutorCampaign:
    """Generated cases, each executed by the engine and by sqlite."""

    @staticmethod
    def _world(batch_size: int):
        instance = build_fuzz_scenario(ScenarioSpec())
        instance.monitor.batch_size = batch_size
        audit = AuditLog(instance.database)
        instance.monitor.attach_audit(audit)
        return instance, audit, EnforcementOracle(instance.admin)

    @staticmethod
    def _reference(world, oracle, case):
        """What sqlite says the submission returns."""
        if case.user is not None and not world.is_authorized(case.user, case.purpose):
            return ("denied", None, None)
        try:
            expected = oracle.expected(case.sql, case.purpose, case.params or None)
        except ReproError:
            return ("error", None, None)
        return (
            "rows",
            tuple(c.lower() for c in expected.columns),
            tuple(normalize_rows(expected.rows)),
        )

    @staticmethod
    def _engine(world, audit, case):
        """What the engine returns, and the audit trail it should and did leave."""
        monitor = world.monitor
        monitor.clear_plan_cache()
        monitor.clear_policy_bitmaps()
        audit_before = len(audit)
        try:
            report = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user, params=case.params or None
            )
        except UnauthorizedPurposeError:
            outcome = ("denied", None, None)
            owed = (("denied", case.user, case.purpose, 0, 0),)
        except ReproError:
            outcome = ("error", None, None)
            owed = ()
        else:
            outcome = (
                "rows",
                tuple(c.lower() for c in report.result.columns),
                tuple(normalize_rows(report.result.rows)),
            )
            owed = (
                (
                    "allowed", case.user, case.purpose,
                    len(report.result), report.compliance_checks,
                ),
            )
        trail = tuple(
            (r.outcome, r.user, r.purpose, r.rows, r.compliance_checks)
            for r in audit.records[audit_before:]
        )
        return outcome, owed, trail

    def _campaign(self, cases: int, batch_size: int) -> None:
        world, audit, oracle = self._world(batch_size)
        generator = FuzzQueryGenerator.for_world(world, seed=CAMPAIGN_SEED)
        disagreements = []
        for case in generator.cases(cases):
            reference = self._reference(world, oracle, case)
            outcome, owed, trail = self._engine(world, audit, case)
            if outcome != reference or trail != owed:
                disagreements.append(
                    f"{case.replay_token} ({case.kind}): {case.sql!r}\n"
                    f"  sqlite: {reference}\n  engine: {outcome}\n"
                    f"  audit:  {trail} (owed {owed})"
                )
                if len(disagreements) >= 5:
                    break
        assert disagreements == [], "\n\n".join(disagreements)

    def test_500_cases_agree_between_executors(self) -> None:
        self._campaign(CAMPAIGN_CASES, PAGE_MODES["batch"])

    def test_200_cases_agree_across_page_boundaries(self) -> None:
        self._campaign(PAGED_CASES, PAGE_MODES["paged"])
