"""Audit logging of enforced executions.

Privacy-aware data management pairs access control with auditability — the
paper's related work (Datta et al. [12]) checks audit logs for compliance
with privacy policies.  :class:`AuditLog` records every execution the
enforcement monitor performs (and every denial), both in memory and in an
``al`` meta-table of the target database so the trail survives with the
data and can itself be queried with SQL.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from ..engine import Column, Database, SqlType, TableSchema


@dataclass(frozen=True)
class AuditRecord:
    """One audited event."""

    sequence: int
    user: str | None
    purpose: str
    query_id: str
    statement: str
    outcome: str  # "allowed" | "denied" | "purpose_switch"
    rows: int
    compliance_checks: int
    #: How a shard coordinator executed the statement (``scatter_rows`` /
    #: ``scatter_agg`` / ``single``); empty for a monitor's own executions.
    #: Kept in memory only — the ``al`` table keeps its persisted shape.
    route: str = ""


class AuditLog:
    """Append-only record of monitored executions."""

    TABLE = "al"

    def __init__(self, database: Database):
        self.database = database
        self.records: list[AuditRecord] = []
        self._sequence = itertools.count(1)
        # One record() = a sequence draw, a list append and a table insert;
        # the lock keeps those atomic when many server threads audit at once
        # (so `al` rows never appear out of sequence order).
        self._lock = threading.Lock()
        if not database.has_table(self.TABLE):
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

    def record(
        self,
        user: str | None,
        purpose: str,
        query_id: str,
        statement: str,
        outcome: str,
        rows: int = 0,
        compliance_checks: int = 0,
        route: str = "",
    ) -> AuditRecord:
        """Append one event to the log (memory + the ``al`` table)."""
        with self._lock:
            entry = AuditRecord(
                sequence=next(self._sequence),
                user=user,
                purpose=purpose,
                query_id=query_id,
                statement=statement,
                outcome=outcome,
                rows=rows,
                compliance_checks=compliance_checks,
                route=route,
            )
            self.records.append(entry)
            self.database.table(self.TABLE).insert_row(
                (
                    entry.sequence, entry.user, entry.purpose, entry.query_id,
                    entry.statement, entry.outcome, entry.rows,
                    entry.compliance_checks,
                )
            )
            return entry

    # -- queries -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

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
