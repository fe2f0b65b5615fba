"""Session-layer tests."""

import pytest

from repro.core import Policy, PolicyRule
from repro.core.session import Session
from repro.errors import PolicyError, UnauthorizedPurposeError


@pytest.fixture()
def ready(fresh_scenario):
    admin = fresh_scenario.admin
    admin.apply_policy(Policy("users", (PolicyRule.pass_all(),)))
    admin.grant_purpose("alice", "p1")
    admin.grant_purpose("alice", "p6")
    return fresh_scenario


class TestSession:
    def test_query_under_purpose(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        result = session.query("select user_id from users")
        assert len(result) == ready.patients

    def test_invalid_purpose_at_construction(self, ready):
        with pytest.raises(PolicyError):
            Session(ready.monitor, user="alice", purpose="p99")

    def test_purpose_switch(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        session.set_purpose("p6")
        assert session.purpose == "p6"
        assert len(session.query("select user_id from users")) == ready.patients

    def test_switch_to_unauthorized_purpose_denied_at_execution(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        session.set_purpose("p7")  # alice holds p1 and p6 only
        with pytest.raises(UnauthorizedPurposeError):
            session.query("select user_id from users")

    def test_invalid_purpose_switch_rejected(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        with pytest.raises(PolicyError):
            session.set_purpose("p99")

    def test_execute_dml(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        count = session.execute("update users set watch_id = 'w'")
        assert count == ready.patients

    def test_rewritten_sql_and_explain(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        sql = session.rewritten_sql("select user_id from users")
        assert "complieswith" in sql
        plan = session.explain("select user_id from users")
        assert "SeqScan users" in plan
        assert "complieswith" in plan

    def test_explain_under_unauthorized_purpose_is_denied(self, ready):
        from repro.core import AuditLog

        audit = AuditLog(ready.database)
        ready.monitor.attach_audit(audit)
        session = Session(ready.monitor, user="alice", purpose="p1")
        session.set_purpose("p7")  # alice holds p1 and p6 only
        with pytest.raises(UnauthorizedPurposeError):
            session.explain("select user_id from users")
        (denial,) = audit.denials()
        assert (denial.user, denial.purpose) == ("alice", "p7")

    def test_explain_is_audited_once(self, ready):
        from repro.core import AuditLog

        audit = AuditLog(ready.database)
        ready.monitor.attach_audit(audit)
        session = Session(ready.monitor, user="alice", purpose="p1")
        plan = session.explain("select user_id from users")
        assert plan.startswith("rewritten: ")
        explained = [r for r in audit.records if r.outcome == "explain"]
        assert len(explained) == 1
        assert (explained[0].user, explained[0].purpose) == ("alice", "p1")

    def test_unknown_user_rejected_at_construction(self, ready):
        with pytest.raises(PolicyError):
            Session(ready.monitor, user="mallory", purpose="p1")

    def test_revoked_user_denied_at_execution(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        ready.admin.revoke_purpose("alice", "p1")
        with pytest.raises(UnauthorizedPurposeError):
            session.query("select user_id from users")

    def test_purpose_switch_is_audited(self, ready):
        from repro.core import AuditLog

        audit = AuditLog(ready.database)
        ready.monitor.attach_audit(audit)
        session = Session(ready.monitor, user="alice", purpose="p1")
        session.set_purpose("p6")
        session.set_purpose("p1")
        switches = audit.purpose_switches()
        assert [record.purpose for record in switches] == ["p6", "p1"]
        assert switches[0].user == "alice"
        assert "p1 -> p6" in switches[0].statement

    def test_purpose_switch_without_audit_log_is_silent(self, ready):
        session = Session(ready.monitor, user="alice", purpose="p1")
        session.set_purpose("p6")  # no audit attached: must not raise
        assert session.purpose == "p6"
