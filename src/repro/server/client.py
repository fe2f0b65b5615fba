"""Client for the enforced-query service.

:class:`Client` speaks the wire protocol of :mod:`repro.server.protocol`
synchronously over one TCP connection: every call sends a frame and blocks
for its response.  Error responses are raised as
:class:`~repro.errors.RemoteError` carrying the protocol code, so callers
can distinguish a policy denial from a parse or engine failure::

    with Client(*server.address) as client:
        client.hello("alice", "p6")
        result = client.query("select avg(beats) from sensed_data")
        try:
            client.query("select * from users")
        except RemoteError as exc:
            if exc.code == "server_busy":
                ...  # back off and retry

Used by the test suite, the ``shards`` benchmark and
``examples/server_demo.py``; it is deliberately the only supported way to
talk to the server in-process or across machines.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from ..errors import (
    RemoteCatalogConflictError,
    RemoteError,
    RemoteTxnConflictError,
    WireProtocolError,
)
from .protocol import (
    E_CATALOG_CONFLICT,
    E_TXN_CONFLICT,
    recv_message,
    rows_from_wire,
    send_message,
)

#: Wire code → typed exception; anything unlisted raises plain RemoteError.
_TYPED_ERRORS: dict = {
    E_TXN_CONFLICT: RemoteTxnConflictError,
    E_CATALOG_CONFLICT: RemoteCatalogConflictError,
}


@dataclass
class QueryResult:
    """One SELECT's answer: columns, row tuples, cache/check metadata.

    ``route`` and ``epoch`` are populated only by the sharded
    :class:`~repro.server.async_server.AsyncQueryServer` (the scatter
    route taken and the policy epoch the scatter executed under); the
    thread-per-connection server leaves them ``None``.
    """

    columns: list[str]
    rows: list[tuple]
    cache_hit: bool
    checks: int
    route: "str | None" = None
    epoch: "int | None" = None

    def __len__(self) -> int:
        return len(self.rows)


class Client:
    """A synchronous connection to a :class:`~repro.server.QueryServer`."""

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.session_id: str | None = None

    # -- plumbing -----------------------------------------------------------------

    def _call(self, request: dict) -> dict:
        send_message(self._sock, request)
        response = recv_message(self._sock)
        if response is None:
            raise WireProtocolError("server closed the connection")
        if not response.get("ok"):
            error = response.get("error") or {}
            code = str(error.get("code", "internal_error"))
            raise _TYPED_ERRORS.get(code, RemoteError)(
                code, str(error.get("message", ""))
            )
        return response

    @staticmethod
    def _result(response: dict) -> QueryResult:
        payload = response["result"]
        return QueryResult(
            columns=list(payload["columns"]),
            rows=rows_from_wire(payload),
            cache_hit=bool(response.get("cache_hit", False)),
            checks=int(response.get("checks", 0)),
            route=response.get("route"),
            epoch=response.get("epoch"),
        )

    # -- session ------------------------------------------------------------------

    def hello(self, user: str, purpose: str) -> str:
        """Authenticate the connection; returns the server session id."""
        response = self._call({"op": "hello", "user": user, "purpose": purpose})
        self.session_id = str(response["session"])
        return self.session_id

    def set_purpose(self, purpose: str) -> None:
        """Switch the session's access purpose for subsequent statements."""
        self._call({"op": "set_purpose", "purpose": purpose})

    def bye(self) -> None:
        """Close the session server-side (the socket stays usable to close)."""
        try:
            self._call({"op": "bye"})
        finally:
            self.session_id = None

    def close(self) -> None:
        """Drop the TCP connection (the server reaps the session)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statements ---------------------------------------------------------------

    def query(self, sql: str, params=None) -> QueryResult:
        """Run an enforced SELECT (or set-operation chain)."""
        request: dict = {"op": "query", "sql": sql}
        if params is not None:
            request["params"] = params
        return self._result(self._call(request))

    def execute(self, sql: str) -> "QueryResult | int":
        """Run any statement; DML returns the affected-row count.

        Transaction control (``BEGIN``/``COMMIT``/``ROLLBACK``) is accepted
        here too and returns ``0``, mirroring
        :meth:`repro.engine.database.Database.execute`; the dedicated
        :meth:`begin`/:meth:`commit`/:meth:`rollback` methods expose the
        transaction id and commit timestamp.
        """
        response = self._call({"op": "execute", "sql": sql})
        if "rowcount" in response:
            return int(response["rowcount"])
        if "result" in response:
            return self._result(response)
        return 0  # transaction control: acknowledged, no rows affected

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> int:
        """Open a snapshot-isolation transaction; returns its id."""
        response = self._call({"op": "execute", "sql": "begin"})
        return int(response["txn"])

    def commit(self) -> int:
        """Commit the open transaction; returns its commit timestamp.

        A first-committer-wins loss surfaces as
        :class:`~repro.errors.RemoteTxnConflictError` (code
        ``txn_conflict``) for row/table data or
        :class:`~repro.errors.RemoteCatalogConflictError` (code
        ``catalog_conflict``) for DDL racing on a catalog entry — the
        transaction is already rolled back server-side; retry the whole
        transaction.
        """
        response = self._call({"op": "execute", "sql": "commit"})
        return int(response["commit_ts"])

    def rollback(self) -> None:
        """Abort the open transaction, discarding its staged writes."""
        self._call({"op": "execute", "sql": "rollback"})

    def prepare(self, sql: str) -> str:
        """Prepare a statement under the current purpose; returns its id."""
        response = self._call({"op": "prepare", "sql": sql})
        return str(response["statement"])

    def execute_prepared(self, statement_id: str, params=None) -> QueryResult:
        """Execute a previously prepared statement under ``params``."""
        request: dict = {"op": "execute_prepared", "statement": statement_id}
        if params is not None:
            request["params"] = params
        return self._result(self._call(request))

    def close_prepared(self, statement_id: str) -> None:
        """Release a prepared statement server-side."""
        self._call({"op": "close_prepared", "statement": statement_id})

    # -- observability ------------------------------------------------------------

    def stats(self) -> dict:
        """The server's stats object (sessions, admission, plan cache)."""
        return self._call({"op": "stats"})["stats"]

    def metrics(self) -> str:
        """The server's Prometheus-style metrics text exposition."""
        return str(self._call({"op": "stats"})["metrics"])

    def explain(self, sql: str, analyze: bool = False) -> list[str]:
        """EXPLAIN [ANALYZE] an enforced query; returns the plan lines."""
        prefix = "explain analyze" if analyze else "explain"
        result = self._result(self._call({"op": "execute", "sql": f"{prefix} {sql}"}))
        return [row[0] for row in result.rows]
