"""Counter accounting over the frozen fuzz corpus.

Replays every authorized corpus case through a metrics-instrumented
monitor and cross-checks the three *readers* of the one cost ledger each
execution charges its ``complieswith`` calls to (the Figure 6
complexity metric):

1. the engine's total (``database.function_calls(COMPLIES_WITH)``), which
   the ledger is folded into when the run ends,
2. the report's ``compliance_checks``, which reads the ledger itself, and
3. the observability layer's ``repro_complieswith_total`` counter, which
   the monitor adds the ledger to.

A drift between any two means the metrics pipeline is lying about the
paper's headline cost measure.  The same replays also pin the memo's
``memo.hit`` / ``memo.miss`` totals (hits + misses must equal total
invocations, since strict-NULL calls bypass both) and — crucially for
the "instrumentation is off-path" guarantee — that tracing-enabled
executions return row-for-row what tracing-disabled executions return,
with identical check counts.  ``tests/core/test_cost_ledger.py`` checks
the same agreement with threads running beside each other.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core import COMPLIES_WITH
from repro.fuzz import EnforcementOracle, load_repro
from repro.fuzz.runner import normalize_rows
from repro.fuzz.scenario import ScenarioSpec, build_fuzz_scenario
from repro.obs import MetricsRegistry

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def _load_cases():
    """(id, case) for every corpus case the world authorizes."""
    cases = []
    for path in CORPUS_FILES:
        spec, case, failures = load_repro(path)
        assert failures == [], f"{path.name} records unresolved failures"
        assert spec == ScenarioSpec(), f"{path.name} pins a non-default spec"
        cases.append((path.stem, case))
    return cases


CASES = _load_cases()


@pytest.fixture(scope="module")
def world():
    """One instrumented fuzzing world shared by all replays."""
    built = build_fuzz_scenario(ScenarioSpec())
    built.monitor.attach_metrics(MetricsRegistry())
    return built


@pytest.fixture(scope="module")
def oracle(world):
    return EnforcementOracle(world.admin)


def _authorized(world, case) -> bool:
    return world.is_authorized(case.user, case.purpose)


def _sorted_rows(result):
    # The oracle's rows come from sqlite: policy masks as bit text, float
    # sums in its own join order — compared the way the fuzzer compares.
    return normalize_rows(result.rows)


@pytest.mark.parametrize("name,case", CASES, ids=[name for name, _ in CASES])
def test_complieswith_accounting_agrees_across_layers(
    world, oracle, name, case
):
    if not _authorized(world, case):
        pytest.skip("denial case: no execution, no checks to account for")
    monitor = world.monitor
    database = world.database
    memo = world.admin.compliance_memo_info()

    metric_before = monitor.metrics.counter("repro_complieswith_total").total()
    engine_before = database.function_calls(COMPLIES_WITH)
    memo_before = memo["hits"] + memo["misses"]

    report = monitor.execute_with_report(
        case.sql, case.purpose, user=case.user, params=case.params or None
    )

    metric_delta = (
        monitor.metrics.counter("repro_complieswith_total").total()
        - metric_before
    )
    engine_delta = database.function_calls(COMPLIES_WITH) - engine_before
    memo = world.admin.compliance_memo_info()
    memo_delta = memo["hits"] + memo["misses"] - memo_before

    assert metric_delta == report.compliance_checks, name
    assert engine_delta == report.compliance_checks, name
    # Strict-NULL arguments bypass the invocation counter *and* the memo,
    # so the memo ledger must account for every counted invocation too.
    assert memo_delta == report.compliance_checks, name

    expected = oracle.expected(case.sql, case.purpose, params=case.params or None)
    assert _sorted_rows(report.result) == _sorted_rows(expected), name


def test_memo_hits_metric_matches_admin_ledger(world):
    monitor = world.monitor
    ledger = world.admin.compliance_memo_info()
    counted = monitor.metrics.counter("repro_complieswith_memo_hits_total")
    # The registry only sees executions routed through this monitor, and the
    # module fixture routes *every* execution through it — so the cumulative
    # metric and the admin's own ledger must agree exactly.
    assert counted.total() == ledger["hits"]


class TestTracingIsOffPath:
    """Enabled tracing must be observationally invisible to results."""

    @pytest.mark.parametrize(
        "name,case",
        [(n, c) for n, c in CASES[:12]],
        ids=[n for n, _ in CASES[:12]],
    )
    def test_traced_runs_match_untraced_runs_row_for_row(
        self, world, name, case
    ):
        if not _authorized(world, case):
            pytest.skip("denial case")
        monitor = world.monitor
        previous = monitor.tracing_enabled
        try:
            monitor.set_tracing(False)
            plain = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user,
                params=case.params or None,
            )
            monitor.set_tracing(True)
            traced = monitor.execute_with_report(
                case.sql, case.purpose, user=case.user,
                params=case.params or None,
            )
        finally:
            monitor.set_tracing(previous)
        assert list(plain.result.rows) == list(traced.result.rows), name
        assert list(plain.result.columns) == list(traced.result.columns)
        assert plain.compliance_checks == traced.compliance_checks
        assert plain.trace is None
        assert traced.trace is not None and traced.trace.enabled

    def test_disabled_tracing_reports_no_trace(self, world):
        monitor = world.monitor
        assert monitor.tracing_enabled is False
        report = monitor.execute_with_report(
            "select count(*) from users", "p1"
        )
        assert report.trace is None
