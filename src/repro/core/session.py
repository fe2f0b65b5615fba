"""User sessions: the client-facing entry point.

A :class:`Session` binds an :class:`~repro.core.monitor.EnforcementMonitor`
to a user and a current access purpose, giving application code the shape a
protected DBMS connection would have::

    session = Session(monitor, user="alice", purpose="p6")
    session.query("select avg(beats) from sensed_data")
    session.set_purpose("p1")
    session.execute("update users set watch_id = 'w' where user_id = 'u'")

Every statement goes through the monitor (signature derivation → rewriting
→ execution), with the session's user checked against the purpose on each
call, so a purpose switch takes effect immediately and is individually
auditable.

Construction validates both ends of the binding: the purpose must exist in
*Ps* and the user must be known to the authorizer (hold at least one Pa
grant, or a role assignment under the role extension) — an unknown user is
rejected up front rather than at first execution.  Purpose switches are
recorded in the monitor's audit log, so per-session purpose churn is
traceable after the fact.
"""

from __future__ import annotations

from ..engine import ResultSet
from ..errors import PolicyError
from .monitor import EnforcementMonitor


class Session:
    """A user's connection-like handle onto the protected database."""

    def __init__(self, monitor: EnforcementMonitor, user: str, purpose: str):
        self.monitor = monitor
        self.user = user
        self._purpose = purpose
        monitor.admin.purposes.get(purpose)  # validates
        knows = getattr(monitor.authorizer, "known_user", None)
        if knows is None:
            knows = monitor.admin.known_user
        if not knows(user):
            raise PolicyError(
                f"unknown user {user!r}: no purpose authorization on record"
            )

    @property
    def purpose(self) -> str:
        """The session's current access purpose."""
        return self._purpose

    def set_purpose(self, purpose: str) -> None:
        """Switch the declared access purpose for subsequent statements.

        The switch itself is audited (outcome ``purpose_switch``) under the
        *new* purpose, with the old one recorded in the statement text.
        """
        self.monitor.admin.purposes.get(purpose)
        previous, self._purpose = self._purpose, purpose
        self.monitor.record_audit(
            self.user,
            purpose,
            "-",
            f"set purpose {previous} -> {purpose}",
            "purpose_switch",
        )

    # -- statement execution ------------------------------------------------------

    def query(self, sql: str) -> ResultSet:
        """Run a SELECT under the session's user and purpose."""
        return self.monitor.execute(sql, self._purpose, user=self.user)

    def execute(self, sql: str) -> ResultSet | int:
        """Run any SELECT/DML statement under the session's user/purpose."""
        return self.monitor.execute_statement(sql, self._purpose, user=self.user)

    def explain(self, sql: str) -> str:
        """EXPLAIN under the session's user and purpose: authorized and
        audited like every other statement, one line per plan row."""
        result = self.monitor.explain(sql, self._purpose, user=self.user)
        return "\n".join(line for (line,) in result.rows)

    def rewritten_sql(self, sql: str) -> str:
        """What the monitor would actually submit for this statement."""
        return self.monitor.rewrite_sql(sql, self._purpose)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(user={self.user!r}, purpose={self._purpose!r})"
