"""Per-execution cost ledgers under concurrency.

A report, an audit record and EXPLAIN ANALYZE read what their own run
spent, from the ledger the run carried on its ``Env`` — never a
before/after diff of process-wide counters, which charged a run for every
call other threads made meanwhile.  Each case runs beside concurrent
readers and compares with the count of the same statement run alone; the
metric and the engine total must grow by exactly the sum of the runs.

The world is the Fig. 6 probe: patients 50 × 100 at selectivity 0.4 with
the optimizer off, where q1 and q2 for ``p6`` make 5 000 ``compliesWith``
calls each.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core import COMPLIES_WITH, AuditLog
from repro.obs import MetricsRegistry
from repro.workload import apply_experiment_policies, build_patients_scenario
from repro.workload.queries import get_query

Q1 = get_query("q1").sql
Q2 = get_query("q2").sql
PURPOSE = "p6"
THREADS = 4
RUNS = 20


@pytest.fixture()
def world():
    scenario = build_patients_scenario(patients=50, samples_per_patient=100)
    apply_experiment_policies(scenario, selectivity=0.4)
    scenario.monitor.set_optimizer("off")
    scenario.monitor.attach_metrics(MetricsRegistry())
    return scenario


def _join(threads, errors) -> None:
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors


def _on_threads(work, count: int = THREADS) -> None:
    """Run ``work(index)`` on ``count`` threads and wait for all of them."""
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            work(index)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    _join(threads, errors)


class _Readers:
    """Threads running q2 until the block ends; the block starts once each
    reader has finished one run, so whatever it runs overlaps theirs."""

    def __init__(self, monitor, count: int = 3):
        self.monitor, self.count = monitor, count
        self.stop = threading.Event()
        self.warm = threading.Barrier(count + 1)
        self.errors: list[BaseException] = []
        self.threads = [threading.Thread(target=self._read) for _ in range(count)]

    def _read(self) -> None:
        try:
            self.monitor.execute_with_report(Q2, PURPOSE)
            self.warm.wait(timeout=120)
            while not self.stop.is_set():
                self.monitor.execute_with_report(Q2, PURPOSE)
        except BaseException as exc:
            self.errors.append(exc)
            self.warm.abort()

    def __enter__(self) -> "_Readers":
        for thread in self.threads:
            thread.start()
        self.warm.wait(timeout=120)
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        _join(self.threads, self.errors)


def test_every_concurrent_report_reads_its_own_checks(world) -> None:
    monitor, database = world.monitor, world.database
    serial = monitor.execute_with_report(Q2, PURPOSE).compliance_checks
    assert serial == 5000
    metric = monitor.metrics.counter("repro_complieswith_total")
    metric_before = metric.total()
    engine_before = database.function_calls(COMPLIES_WITH)
    reports: list = []

    def work(_: int) -> None:
        for _ in range(RUNS):
            reports.append(monitor.execute_with_report(Q2, PURPOSE))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: a lost fold shows
    try:
        _on_threads(work)
    finally:
        sys.setswitchinterval(interval)
    assert len(reports) == THREADS * RUNS
    assert {report.compliance_checks for report in reports} == {serial}
    assert {report.costs[COMPLIES_WITH] for report in reports} == {serial}
    assert metric.total() - metric_before == THREADS * RUNS * serial
    assert (
        database.function_calls(COMPLIES_WITH) - engine_before
        == THREADS * RUNS * serial
    )


def test_contended_memo_keeps_hits_plus_misses_per_report(world) -> None:
    """The memo is taken once a page, by four threads at once, starting
    cold: every report still reads ``memo.hit + memo.miss`` = its checks."""
    monitor = world.monitor
    serial = monitor.execute_with_report(Q1, PURPOSE).compliance_checks
    assert serial == 5000
    world.admin._compliance_memo.clear()  # start the memo cold
    checks = monitor.metrics.counter("repro_complieswith_total")
    hits = monitor.metrics.counter("repro_complieswith_memo_hits_total")
    before = checks.total(), hits.total()
    reports: list = []

    def work(_: int) -> None:
        for _ in range(RUNS):
            reports.append(monitor.execute_with_report(Q1, PURPOSE))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _on_threads(work)
    finally:
        sys.setswitchinterval(interval)
    assert len(reports) == THREADS * RUNS
    assert {
        (r.compliance_checks, r.costs["memo.hit"] + r.costs["memo.miss"])
        for r in reports
    } == {(serial, serial)}
    assert sum(r.costs["memo.miss"] for r in reports) > 0
    assert checks.total() - before[0] == sum(r.compliance_checks for r in reports)
    assert hits.total() - before[1] == sum(r.costs["memo.hit"] for r in reports)


def test_enforced_update_audits_its_own_checks_beside_readers(world) -> None:
    monitor = world.monitor
    audit = AuditLog(world.database)
    monitor.attach_audit(audit)
    sql = "update sensed_data set beats = beats where beats > 0"

    def checks_of_update() -> int:
        monitor.execute_statement(sql, PURPOSE)
        return [r for r in audit.records if r.statement == sql][-1].compliance_checks

    serial = checks_of_update()
    assert serial > 0
    with _Readers(monitor):
        concurrent = [checks_of_update() for _ in range(3)]
    assert concurrent == [serial] * 3


def test_explain_analyze_prints_its_own_checks_beside_readers(world) -> None:
    monitor = world.monitor

    def printed_checks() -> str:
        plan = monitor.explain(Q2, PURPOSE, analyze=True)
        (line,) = [row[0] for row in plan.rows if row[0].startswith("Execution:")]
        return line.split()[2]

    assert printed_checks() == "checks=5000"
    with _Readers(monitor):
        concurrent = [printed_checks() for _ in range(3)]
    assert concurrent == ["checks=5000"] * 3


def test_concurrent_point_lookups_each_report_one_probe(world) -> None:
    monitor, database = world.monitor, world.database
    monitor.set_optimizer("on")
    database.execute("create index i_wt on sensed_data (watch_id, timestamp)")
    sql = "select beats from sensed_data where watch_id = ? and timestamp = ?"
    probes: list[int] = []

    def work(index: int) -> None:
        prepared = monitor.prepare(sql, PURPOSE)
        for run in range(RUNS):
            report = prepared.execute_with_report(params=[f"watch{index}", run])
            probes.append(report.costs["index.hit"])

    _on_threads(work)
    assert probes == [1] * (THREADS * RUNS)


def test_enforced_dml_counts_its_index_probe() -> None:
    """DML reaches the same cost metrics as SELECT: an UPDATE whose WHERE
    an index narrows counts the probe under ``repro_index_total``."""
    scenario = build_patients_scenario(patients=12, samples_per_patient=4)
    apply_experiment_policies(scenario, selectivity=0.4, seed=3)
    monitor = scenario.monitor
    monitor.attach_metrics(MetricsRegistry())
    scenario.database.execute("create index i_user on users (user_id)")
    probes = monitor.metrics.counter("repro_index_total")
    before = probes.value(event="hit")
    monitor.execute_statement(
        "update users set nutritional_profile_id = 1 where user_id = 'user1'",
        PURPOSE,
    )
    assert probes.value(event="hit") - before == 1
