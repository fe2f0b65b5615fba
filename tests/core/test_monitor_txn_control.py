"""Transaction control through the enforcement monitor.

``EnforcementMonitor.execute_statement`` routes BEGIN, COMMIT and ROLLBACK
to ``execute_txn_control``: never enforced, never audited, only counted in
``repro_txn_total``.  The statements between them run enforced against
the transaction's snapshot and staged overlay.
"""

from __future__ import annotations

import threading

import pytest

from repro import Database
from repro.core import (
    AccessControlManager,
    AuditLog,
    EnforcementMonitor,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
)
from repro.engine.mvcc import current_transaction
from repro.errors import WriteConflictError
from repro.obs import MetricsRegistry

SCAN = "select k, v from t order by k"


@pytest.fixture(params=[None, "off"], ids=["optimizer-on", "optimizer-off"])
def monitor(request):
    db = Database()
    db.execute("create table t (k text primary key, v integer)")
    db.table("t").append_rows([("a", 1), ("b", 2)])
    admin = AccessControlManager(db)
    admin.configure(purposes=PurposeSet([Purpose("p1", "x")]))
    admin.apply_policy(Policy("t", (PolicyRule.pass_all(),)))
    monitor = EnforcementMonitor(admin, optimizer=request.param)
    monitor.attach_metrics(MetricsRegistry())
    monitor.attach_audit(AuditLog(db))
    yield monitor
    if current_transaction(db.transactions) is not None:
        db.rollback()


def _control(monitor, statement: str) -> int:
    """Run one transaction-control statement; it must leave no audit record."""
    before = len(monitor.audit)
    result = monitor.execute_statement(statement, "p1")
    assert len(monitor.audit) == before
    return result


def _txns(monitor, outcome: str) -> float:
    return monitor.metrics.counter("repro_txn_total").value(outcome=outcome)


def _rows(monitor) -> list:
    return monitor.execute_statement(SCAN, "p1").rows


def test_rollback_leaves_the_rows_unchanged(monitor) -> None:
    assert _control(monitor, "begin") == 0
    assert monitor.execute_statement("update t set v = 10 where k = 'a'", "p1") == 1
    assert _rows(monitor) == [("a", 10), ("b", 2)]
    assert _control(monitor, "rollback") == 0
    assert _rows(monitor) == [("a", 1), ("b", 2)]
    assert (_txns(monitor, "begin"), _txns(monitor, "rollback")) == (1, 1)


def test_commit_applies_the_update(monitor) -> None:
    _control(monitor, "begin")
    monitor.execute_statement("update t set v = 10 where k = 'a'", "p1")
    assert _control(monitor, "commit") == 0
    assert current_transaction(monitor.admin.database.transactions) is None
    assert _rows(monitor) == [("a", 10), ("b", 2)]
    assert _txns(monitor, "commit") == 1


def test_losing_commit_raises_and_counts_a_conflict(monitor) -> None:
    db = monitor.admin.database
    _control(monitor, "begin")
    monitor.execute_statement("update t set v = 10 where k = 'a'", "p1")
    # A new thread starts outside the transaction: an autocommit writer.
    writer = threading.Thread(
        target=db.execute, args=("update t set v = 20 where k = 'a'",)
    )
    writer.start()
    writer.join(timeout=60)
    before = len(monitor.audit)
    with pytest.raises(WriteConflictError):
        monitor.execute_statement("commit", "p1")
    assert len(monitor.audit) == before
    assert _txns(monitor, "conflict") == 1
    assert _txns(monitor, "commit") == 0
    assert _rows(monitor) == [("a", 20), ("b", 2)]


def test_full_scan_in_the_transaction_reads_its_overlay(monitor) -> None:
    table = monitor.admin.database.table("t")
    assert _rows(monitor) == [("a", 1), ("b", 2)]
    assert monitor.execute_unprotected(SCAN).rows == [("a", 1), ("b", 2)]
    committed = table.rows
    assert table.column_image(committed, False) is not None  # built by the scans
    _control(monitor, "begin")
    monitor.execute_statement("update t set v = 10 where k = 'a'", "p1")
    assert table.rows is not committed
    assert table.column_image(table.rows, True) is None  # an overlay has none
    assert _rows(monitor) == [("a", 10), ("b", 2)]
    assert monitor.execute_unprotected(SCAN).rows == [("a", 10), ("b", 2)]
    _control(monitor, "rollback")
    assert table.rows is committed
    assert monitor.execute_unprotected(SCAN).rows == [("a", 1), ("b", 2)]
