"""Per-connection session state and its registry.

A :class:`ServerSession` is the server-side face of one authenticated
connection: the underlying :class:`~repro.core.session.Session` (user +
current purpose, both validated at ``hello`` time), the connection's open
prepared statements, and per-session counters surfaced by ``stats``.

Prepared statements are owned by the session that created them — statement
ids are meaningless on other connections and everything is released when the
session closes (``bye`` or disconnect).  A prepared statement keeps the
purpose it was prepared under; a later ``set_purpose`` affects subsequent
``query``/``execute``/``prepare`` calls but never silently repurposes an
existing plan (re-prepare to pick up the new purpose).
"""

from __future__ import annotations

import itertools
import threading

from ..core.monitor import EnforcementMonitor, PreparedEnforcedQuery
from ..core.session import Session
from ..errors import WireProtocolError


class ServerSession:
    """One connection's authenticated state."""

    def __init__(self, session_id: str, session: Session):
        self.id = session_id
        self.session = session
        self.prepared: dict[str, PreparedEnforcedQuery] = {}
        self._statement_ids = itertools.count(1)
        self.statements = 0
        self.denials = 0
        #: The session's open transaction handle
        #: (:class:`~repro.engine.mvcc.Transaction`), or ``None``; the
        #: request core activates it per statement with
        #: :func:`~repro.engine.mvcc.txn_scope`.
        self.txn = None
        self.commits = 0
        self.rollbacks = 0
        self.conflicts = 0

    @property
    def user(self) -> str:
        return self.session.user

    @property
    def purpose(self) -> str:
        return self.session.purpose

    def add_prepared(self, prepared: PreparedEnforcedQuery) -> str:
        """Register a prepared statement; returns its connection-local id."""
        statement_id = f"s{next(self._statement_ids)}"
        self.prepared[statement_id] = prepared
        return statement_id

    def get_prepared(self, statement_id: str) -> PreparedEnforcedQuery:
        """Look up a statement id, raising on unknown/closed ids."""
        try:
            return self.prepared[statement_id]
        except KeyError:
            raise WireProtocolError(
                f"unknown prepared statement {statement_id!r}"
            ) from None

    def close_prepared(self, statement_id: str) -> None:
        """Release one prepared statement."""
        self.get_prepared(statement_id)
        del self.prepared[statement_id]

    def describe(self) -> dict:
        """The session's row in the ``stats`` response."""
        return {
            "user": self.user,
            "purpose": self.purpose,
            "prepared": len(self.prepared),
            "statements": self.statements,
            "denials": self.denials,
            "txn_open": self.txn is not None,
            "commits": self.commits,
            "rollbacks": self.rollbacks,
            "conflicts": self.conflicts,
        }

    def abandon_txn(self) -> None:
        """Roll back the open transaction, if any (disconnect path)."""
        txn = self.txn
        self.txn = None
        if txn is not None:
            txn.manager.rollback(txn)


class SessionManager:
    """Registry of live sessions, keyed by server-assigned session id."""

    def __init__(self, monitor: EnforcementMonitor):
        self.monitor = monitor
        self._sessions: dict[str, ServerSession] = {}
        self._session_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._opened = 0

    def open(self, user: str, purpose: str) -> ServerSession:
        """Authenticate and register a session (``hello``).

        Validation is the core :class:`Session`'s: the purpose must exist
        and the user must be known to the authorizer — failures surface as
        :class:`~repro.errors.PolicyError` before any session state exists.
        """
        core_session = Session(self.monitor, user=user, purpose=purpose)
        with self._lock:
            session = ServerSession(f"c{next(self._session_ids)}", core_session)
            self._sessions[session.id] = session
            self._opened += 1
        return session

    def close(self, session_id: str) -> None:
        """Drop a session and everything it holds; unknown ids are ignored.

        An open transaction is rolled back — a disconnected client can
        never leave staged writes pinning snapshots alive.
        """
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None:
            session.abandon_txn()

    def stats(self) -> dict:
        """Open/lifetime counts plus a per-session breakdown."""
        with self._lock:
            return {
                "open": len(self._sessions),
                "opened_total": self._opened,
                "sessions": {
                    session.id: session.describe()
                    for session in self._sessions.values()
                },
            }
