"""Golden-plan regression tests: EXPLAIN output pinned for q1–q8.

Every ad-hoc workload query is explained under two purposes (p1 =
treatment, the running example's primary purpose, and p6 = research, the
benchmark purpose) against the deterministic scenario below, and the full
output — rewritten SQL plus the plan tree — is compared line-for-line
against committed golden files under ``tests/golden/``.  Any drift in the
signature derivation, the rewriter, the printer or the planner now fails
loudly with a diff.  The enforced point lookup on the composite
``sensed_data`` key is pinned the same way, prepared (``?``) and literal:
one index probe *under* the policy guard, the matched conjuncts kept above
it as the recheck.

To intentionally accept new plans::

    PYTHONPATH=src python -m pytest tests/obs/test_explain_golden.py --update-golden
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.workload import apply_experiment_policies, build_patients_scenario
from repro.workload.queries import AD_HOC_QUERIES

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: Both purposes the EXPERIMENTS scenarios exercise: the running example's
#: treatment purpose and the benchmark harness's research purpose.
PURPOSES = ("p1", "p6")


@pytest.fixture(scope="module")
def golden_monitor():
    """The deterministic world all golden plans are produced against."""
    instance = build_patients_scenario(patients=25, samples_per_patient=8)
    apply_experiment_policies(instance, selectivity=0.4, seed=99)
    return instance.monitor


#: The enforced point lookups: ``name -> (sql, params)``.
POINT_LOOKUPS = {
    "point_prepared": (
        "select temperature, beats from sensed_data "
        "where watch_id = ? and timestamp = ?",
        ["watch3", 5],
    ),
    "point_literal": (
        "select temperature, beats from sensed_data "
        "where watch_id = 'watch3' and timestamp = 5",
        None,
    ),
}


@pytest.fixture(scope="module")
def indexed_monitor():
    """The golden world plus the composite key index (its own instance:
    the q1–q8 goldens are pinned against an index-less world)."""
    instance = build_patients_scenario(patients=25, samples_per_patient=8)
    apply_experiment_policies(instance, selectivity=0.4, seed=99)
    instance.database.execute(
        "create index watch_ts on sensed_data (watch_id, timestamp)"
    )
    return instance.monitor


def explain_text(monitor, sql: str, purpose: str, params=None) -> str:
    result = monitor.explain(sql, purpose, params=params)
    assert list(result.columns) == ["plan"]
    text = "\n".join(row[0] for row in result.rows) + "\n"
    # The catalog version counts every metadata commit since the world was
    # built, and the MVCC and fallback engines take slightly different
    # build paths — goldens pin the plan shape, not the counter.
    return re.sub(r"catalog=\d+", "catalog=<v>", text)


@pytest.mark.parametrize("purpose", PURPOSES)
@pytest.mark.parametrize("query", AD_HOC_QUERIES, ids=lambda q: q.name)
def test_explain_matches_golden(golden_monitor, query, purpose, update_golden):
    text = explain_text(golden_monitor, query.sql, purpose)
    path = GOLDEN_DIR / f"explain_{query.name}_{purpose}.txt"
    _assert_golden(text, path, update_golden)


def _assert_golden(text: str, path: Path, update: bool) -> None:
    if update:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.exists(), (
        f"missing golden file {path.name}; regenerate with --update-golden"
    )
    assert text == path.read_text(encoding="utf-8"), (
        f"EXPLAIN drift for {path.stem}; if intentional, rerun "
        "with --update-golden and commit the diff"
    )


@pytest.mark.parametrize("name", POINT_LOOKUPS)
def test_point_lookup_matches_golden(indexed_monitor, name, update_golden):
    sql, params = POINT_LOOKUPS[name]
    text = explain_text(indexed_monitor, sql, "p6", params)
    _assert_golden(text, GOLDEN_DIR / f"explain_{name}_p6.txt", update_golden)
    lines = text.splitlines()
    (scan,) = [i for i, line in enumerate(lines) if "  IndexScan " in line][-1:]
    assert lines[scan - 1].lstrip().startswith("PolicyGuard [")
    assert lines[scan - 2].lstrip().startswith("Filter [watch_id = ")


def test_golden_directory_has_exactly_the_expected_files() -> None:
    expected = {
        f"explain_{query.name}_{purpose}.txt"
        for query in AD_HOC_QUERIES
        for purpose in PURPOSES
    } | {f"explain_{name}_p6.txt" for name in POINT_LOOKUPS}
    present = {path.name for path in GOLDEN_DIR.glob("*.txt")}
    assert present == expected


def test_golden_files_show_enforcement() -> None:
    """Every golden plan must carry the rewritten, policy-guarded query."""
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        text = path.read_text(encoding="utf-8")
        assert text.startswith("rewritten: "), path.name
        assert "complieswith" in text, f"{path.name} shows no enforcement"


class TestExplainAnalyze:
    """EXPLAIN ANALYZE adds per-node rows and timings on top of the plan."""

    @pytest.mark.parametrize("query", AD_HOC_QUERIES, ids=lambda q: q.name)
    def test_analyze_reports_rows_and_timings(self, golden_monitor, query):
        result = golden_monitor.explain(query.sql, "p6", analyze=True)
        lines = [row[0] for row in result.rows]
        assert lines[0].startswith("rewritten: ")
        assert any("(rows=" in line for line in lines), lines
        execution = [l for l in lines if l.startswith("Execution: ")]
        assert len(execution) == 1
        assert "checks=" in execution[0] and "memo_hits=" in execution[0]
        timing = [l for l in lines if l.startswith("Timing: ")]
        assert len(timing) == 1
        assert "execute=" in timing[0] and "ms" in timing[0]

    def test_analyze_plan_extends_the_plain_plan(self, golden_monitor):
        query = AD_HOC_QUERIES[0]
        plain = [row[0] for row in golden_monitor.explain(query.sql, "p6").rows]
        analyzed = [
            row[0]
            for row in golden_monitor.explain(query.sql, "p6", analyze=True).rows
        ]
        # Stripping the (rows=N) suffixes and the two summary lines yields
        # exactly the plain EXPLAIN output.
        import re

        stripped = [
            re.sub(r" \(rows=\d+(?:, batches=\d+)?\)", "", line)
            for line in analyzed
            if not line.startswith(("Execution: ", "Timing: "))
        ]
        assert stripped == plain

    def test_analyze_row_counts_are_real(self, golden_monitor):
        query = AD_HOC_QUERIES[0]  # q1: distinct watch_id over sensed_data
        # Clear cached bitmaps before each run so both executions pay the
        # same guard-evaluation cost and their check counts can be compared.
        golden_monitor.clear_policy_bitmaps()
        report = golden_monitor.execute_with_report(query.sql, "p6")
        golden_monitor.clear_policy_bitmaps()
        lines = [
            row[0]
            for row in golden_monitor.explain(query.sql, "p6", analyze=True).rows
        ]
        (execution,) = [l for l in lines if l.startswith("Execution: ")]
        assert f"rows={len(report.result)}" in execution
        assert f"checks={report.compliance_checks}" in execution
