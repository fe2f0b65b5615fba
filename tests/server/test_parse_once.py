"""The ``execute`` verb parses a statement once: the parse that classifies
it is the one that runs (a SELECT's through the monitor's memo, a DML
statement's handed to the job), and audit records keep the caller's text."""

from __future__ import annotations

import pytest

from repro.core import AuditLog
from repro.server import Client, QueryServer
from repro.sql.parser import Parser
from repro.workload import apply_experiment_policies, build_patients_scenario


@pytest.mark.parametrize(
    "sql",
    [
        "update users set nutritional_profile_id = 3 where user_id = 'user2'",
        "select beats from sensed_data where watch_id = 'watch2' and timestamp = 1",
    ],
)
def test_execute_parses_once(monkeypatch, sql):
    scenario = build_patients_scenario(patients=6, samples_per_patient=2)
    apply_experiment_policies(scenario, selectivity=0.4, seed=3)
    scenario.admin.grant_purpose("user2", "p6")
    audit = AuditLog(scenario.database)
    scenario.monitor.attach_audit(audit)
    parsed = []
    statement = Parser.statement
    monkeypatch.setattr(
        Parser, "statement", lambda self: parsed.append(1) or statement(self)
    )
    with QueryServer(scenario.monitor, workers=1) as server:
        with Client(*server.address) as client:
            client.hello("user2", "p6")
            client.execute(sql)
    assert len(parsed) == 1
    assert audit.records[-1].statement == sql
