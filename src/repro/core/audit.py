"""Audit logging of enforced executions.

Privacy-aware data management pairs access control with auditability — the
paper's related work (Datta et al. [12]) checks audit logs for compliance
with privacy policies.  :class:`AuditLog` records every execution the
enforcement monitor performs (and every denial) as a row of the ``al``
meta-table of the target database, and nowhere else: the trail survives
with the data, can itself be queried with SQL, and a log opened on a
reloaded or recovered database reads the trail it left.

An audit row is a non-durable append commit: its WAL frame is written at
once and rides the next fsync of any kind, so an audited read costs no
fsync; an OS crash may lose the frames since the last one (DESIGN.md §15).
"""

from __future__ import annotations

import itertools
import threading
from typing import NamedTuple

from ..engine import Column, Database, SqlType, TableSchema


class AuditRecord(NamedTuple):
    """One audited event: an ``al`` row, field by field."""

    sequence: int
    user: str | None
    purpose: str
    query_id: str
    statement: str
    outcome: str  # "allowed" | "denied" | "explain" | "purpose_switch"
    rows: int
    compliance_checks: int


class AuditLog:
    """Append-only record of monitored executions, kept in ``al``."""

    TABLE = "al"

    def __init__(self, database: Database):
        self.database = database
        # One record() = a sequence draw and a table append; the lock keeps
        # the two atomic when many server threads audit at once (so `al`
        # rows never appear out of sequence order).
        self._lock = threading.Lock()
        if database.has_table(self.TABLE):
            # A reopened database: `seq` continues after its largest value.
            last = max(database.table(self.TABLE).column_values("seq"), default=0)
        else:
            last = 0
            database.create_table(
                TableSchema(
                    self.TABLE,
                    [
                        Column("seq", SqlType.INTEGER, primary_key=True),
                        Column("ui", SqlType.TEXT),
                        Column("pi", SqlType.TEXT),
                        Column("qi", SqlType.TEXT),
                        Column("stmt", SqlType.TEXT),
                        Column("outcome", SqlType.TEXT),
                        Column("rows", SqlType.INTEGER),
                        Column("checks", SqlType.INTEGER),
                    ],
                )
            )
        self._sequence = itertools.count(last + 1)

    def record(
        self,
        user: str | None,
        purpose: str,
        query_id: str,
        statement: str,
        outcome: str,
        rows: int = 0,
        compliance_checks: int = 0,
    ) -> AuditRecord:
        """Append one event to the ``al`` table."""
        with self._lock:
            entry = AuditRecord(
                next(self._sequence), user, purpose, query_id, statement,
                outcome, rows, compliance_checks,
            )
            self.database.table(self.TABLE).append_rows([entry], durable=False)
            return entry

    # -- queries -------------------------------------------------------------------

    def since(self, mark: int) -> list[AuditRecord]:
        """The events after the first ``mark`` (an earlier :func:`len`):
        ``al``'s latest committed rows, whatever transaction is ambient."""
        rows = self.database.table(self.TABLE).latest_rows()
        return list(map(AuditRecord._make, rows[mark:]))

    @property
    def records(self) -> list[AuditRecord]:
        """Every event, in sequence order."""
        return self.since(0)

    def __len__(self) -> int:
        return len(self.database.table(self.TABLE).latest_rows())

    def for_user(self, user: str) -> list[AuditRecord]:
        """Events attributed to one user."""
        return [record for record in self.records if record.user == user]

    def denials(self) -> list[AuditRecord]:
        """Events that were denied."""
        return [record for record in self.records if record.outcome == "denied"]

    def purpose_switches(self) -> list[AuditRecord]:
        """Session purpose changes (per-session purpose churn)."""
        return [
            record
            for record in self.records
            if record.outcome == "purpose_switch"
        ]

    def by_purpose(self, purpose: str) -> list[AuditRecord]:
        """Events executed under one purpose."""
        return [record for record in self.records if record.purpose == purpose]
