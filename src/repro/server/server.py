"""The concurrent enforced-query service.

:class:`QueryServer` fronts one :class:`~repro.core.monitor.EnforcementMonitor`
with a TCP listener speaking the length-prefixed JSON protocol of
:mod:`repro.server.protocol`.  Three mechanisms make concurrent traffic safe
and bounded:

* **Snapshot handoff (MVCC)** — enforced SELECTs (``query``, ``prepare``,
  ``execute_prepared``) pin a snapshot (commit ts × policy epoch) and read
  lock-free, so DML and policy updates never stall readers; writers still
  serialize on the writer side of the readers–writer lock, and multi-
  statement transactions (``BEGIN``/``COMMIT``/``ROLLBACK`` through
  ``execute``) settle write-write races first-committer-wins at COMMIT.
* **Admission control** — statement work runs on a fixed
  :class:`~repro.server.admission.WorkerPool` behind a bounded queue;
  overload is answered with ``server_busy`` instead of queueing without
  bound (connections are kept open, clients retry).
* **Session manager** — per-connection authenticated state (user, purpose,
  prepared statements) lives in :class:`~repro.server.sessions.SessionManager`;
  a dropped connection releases everything it held.

Cheap control verbs (``hello``, ``set_purpose``, ``close_prepared``,
``stats``, ``bye``) are answered on the connection thread and bypass
admission — backpressure applies to statement execution, not to session
control.
"""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager

from ..core.monitor import EnforcementMonitor
from ..engine import txn_scope
from ..errors import (
    CatalogConflictError,
    ReproError,
    ServerBusyError,
    TransactionError,
    WireProtocolError,
    WriteConflictError,
)
from ..obs.metrics import MetricsRegistry
from ..sql import ast, parse_statement
from .admission import WorkerPool
from .locks import ReadWriteLock
from .protocol import (
    DENIAL_CODES,
    E_BUSY,
    E_INTERNAL,
    E_NO_SESSION,
    E_PROTOCOL,
    error_code_for,
    error_response,
    ok_response,
    recv_message,
    result_to_wire,
    send_message,
)
from .sessions import ServerSession, SessionManager


def _wire_params(params):
    """Decode parameter bindings off the wire.

    JSON object keys are always strings; digit keys were positional indexes
    (``$1``-style) on the client, so they are restored to ints before they
    reach :func:`repro.engine.database.bind_parameters`.
    """
    if params is None or isinstance(params, list):
        return params
    if isinstance(params, dict):
        return {
            int(key) if isinstance(key, str) and key.isdigit() else key: value
            for key, value in params.items()
        }
    raise WireProtocolError(
        f"params must be an array or object, got {type(params).__name__}"
    )


class QueryServer:
    """A TCP query service enforcing purpose-based access control."""

    def __init__(
        self,
        monitor: EnforcementMonitor,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        max_pending: int = 32,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.monitor = monitor
        self.host = host
        self.port = port
        self.workers = workers
        self.max_pending = max_pending
        # One process-wide registry: explicit > already-attached > fresh.
        # The monitor aggregates into the same registry, so a `stats` scrape
        # sees enforcement and wire-level counters side by side.
        self.metrics = metrics or monitor.metrics or MetricsRegistry()
        monitor.attach_metrics(self.metrics)
        self.metrics.counter(
            "repro_requests_total", "Wire-protocol requests by verb"
        )
        self.metrics.counter(
            "repro_admission_rejections_total",
            "Statements rejected with server_busy by admission control",
        )
        self.metrics.counter(
            "repro_denials_total", "Requests denied by access control"
        )
        self.metrics.gauge(
            "repro_connections", "Currently open client connections"
        )
        self.sessions = SessionManager(monitor)
        self.rwlock = ReadWriteLock()
        self._pool: WorkerPool | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_threads: set[threading.Thread] = set()
        self._state_lock = threading.Lock()
        self._running = False
        self._requests = 0
        self._denials = 0
        self._busy_responses = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "QueryServer":
        """Bind, listen and start accepting connections; returns ``self``."""
        if self._running:
            raise RuntimeError("server is already running")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._pool = WorkerPool(
            workers=self.workers, max_pending=self.max_pending
        )
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drop connections, drain the pool, join threads."""
        if not self._running:
            return
        self._running = False
        assert self._listener is not None and self._pool is not None
        # close() alone does not wake a thread blocked in accept() on Linux.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._state_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        for thread in list(self._conn_threads):
            thread.join(timeout=5)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is reachable at (port 0 → assigned)."""
        return (self.host, self.port)

    @contextmanager
    def exclusive(self):
        """Exclusive access for administrative mutations.

        Policy changes go through the admin API in-process, not over the
        wire; wrapping them in ``with server.exclusive():`` orders them
        against in-flight query traffic exactly like DML — no reader runs
        while the mutation is mid-flight, and every later read sees the
        bumped policy epoch.
        """
        with self.rwlock.write_locked():
            yield

    # -- accept / connection loops --------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            with self._state_lock:
                if not self._running:
                    conn.close()
                    return
                self._connections.add(conn)
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name="repro-server-conn",
                    daemon=True,
                )
                self._conn_threads.add(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session: ServerSession | None = None
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    request = recv_message(conn)
                except (WireProtocolError, OSError):
                    return
                if request is None:
                    return
                response, session, keep_open = self._handle(session, request)
                try:
                    send_message(conn, response)
                except OSError:
                    return
                if not keep_open:
                    return
        finally:
            if session is not None:
                self.sessions.close(session.id)
            with self._state_lock:
                self._connections.discard(conn)
                self._conn_threads.discard(threading.current_thread())
            try:
                conn.close()
            except OSError:
                pass

    # -- dispatch -------------------------------------------------------------------

    def _handle(
        self, session: ServerSession | None, request: dict
    ) -> tuple[dict, ServerSession | None, bool]:
        """One request → ``(response, session, keep_connection_open)``."""
        with self._state_lock:
            self._requests += 1
            connections = len(self._connections)
        op = request.get("op")
        self.metrics.counter("repro_requests_total").inc(verb=str(op))
        try:
            if op == "hello":
                return self._op_hello(session, request)
            if op == "bye":
                if session is not None:
                    self.sessions.close(session.id)
                return ok_response(goodbye=True), None, False
            if op == "stats":
                self.metrics.gauge("repro_connections").set(connections)
                return (
                    ok_response(stats=self.stats(), metrics=self.metrics.render()),
                    session,
                    True,
                )
            if not isinstance(op, str):
                return (
                    error_response(E_PROTOCOL, "request has no 'op' field"),
                    session,
                    True,
                )
            if session is None:
                return (
                    error_response(
                        E_NO_SESSION, f"{op!r} requires a session; send 'hello'"
                    ),
                    session,
                    True,
                )
            handler = {
                "set_purpose": self._op_set_purpose,
                "query": self._op_query,
                "execute": self._op_execute,
                "prepare": self._op_prepare,
                "execute_prepared": self._op_execute_prepared,
                "close_prepared": self._op_close_prepared,
            }.get(op)
            if handler is None:
                return (
                    error_response(E_PROTOCOL, f"unknown verb {op!r}"),
                    session,
                    True,
                )
            return handler(session, request), session, True
        except ServerBusyError as exc:
            with self._state_lock:
                self._busy_responses += 1
            self.metrics.counter("repro_admission_rejections_total").inc()
            return error_response(E_BUSY, str(exc)), session, True
        except WireProtocolError as exc:
            return error_response(E_PROTOCOL, str(exc)), session, True
        except ReproError as exc:
            code = error_code_for(exc)
            if code in DENIAL_CODES:
                with self._state_lock:
                    self._denials += 1
                if session is not None:
                    session.denials += 1
                self.metrics.counter("repro_denials_total").inc()
            return error_response(code, str(exc)), session, True
        except Exception as exc:  # keep the connection alive on server bugs
            return error_response(E_INTERNAL, f"{type(exc).__name__}: {exc}"), (
                session
            ), True

    @staticmethod
    def _required(request: dict, field: str) -> object:
        try:
            return request[field]
        except KeyError:
            raise WireProtocolError(
                f"{request.get('op')!r} requires a {field!r} field"
            ) from None

    # -- session verbs ---------------------------------------------------------------

    def _op_hello(
        self, session: ServerSession | None, request: dict
    ) -> tuple[dict, ServerSession, bool]:
        if session is not None:
            return (
                error_response(
                    E_PROTOCOL, "session already established on this connection"
                ),
                session,
                True,
            )
        user = str(self._required(request, "user"))
        purpose = str(self._required(request, "purpose"))
        opened = self.sessions.open(user, purpose)
        return (
            ok_response(session=opened.id, user=user, purpose=purpose),
            opened,
            True,
        )

    def _op_set_purpose(self, session: ServerSession, request: dict) -> dict:
        purpose = str(self._required(request, "purpose"))
        session.session.set_purpose(purpose)
        return ok_response(purpose=purpose)

    def _op_close_prepared(self, session: ServerSession, request: dict) -> dict:
        statement_id = str(self._required(request, "statement"))
        session.close_prepared(statement_id)
        return ok_response(closed=statement_id)

    # -- statement verbs (admission-controlled) --------------------------------------

    def _op_query(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        params = _wire_params(request.get("params"))
        assert self._pool is not None
        return self._pool.run(self._run_select, session, sql, params)

    def _op_execute(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        statement = parse_statement(sql)  # parse errors answered inline
        assert self._pool is not None
        if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
            return self._pool.run(self._run_txn, session, statement)
        if isinstance(statement, ast.Explain):
            return self._pool.run(self._run_explain, session, statement)
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return self._pool.run(self._run_select, session, sql, None)
        return self._pool.run(self._run_dml, session, sql)

    def _op_prepare(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        assert self._pool is not None
        return self._pool.run(self._run_prepare, session, sql)

    def _op_execute_prepared(self, session: ServerSession, request: dict) -> dict:
        statement_id = str(self._required(request, "statement"))
        prepared = session.get_prepared(statement_id)
        params = _wire_params(request.get("params"))
        assert self._pool is not None
        return self._pool.run(
            self._run_execute_prepared, session, prepared, params
        )

    # -- worker-side execution --------------------------------------------------------

    @contextmanager
    def _read_scope(self, session: ServerSession):
        """Consistency scope for one read statement.

        Inside an open transaction: activate the session's transaction on
        this worker thread (its snapshot pins both data versions and the
        policy epoch).  Otherwise pin an ephemeral read snapshot — the
        *snapshot handoff*, so writers never block this read.
        """
        if session.txn is not None:
            with txn_scope(session.txn):
                yield
        else:
            # Pin the snapshot under the read side of the lock — a snapshot
            # can never begin in the middle of an exclusive admin batch or
            # a DML write — then release it and execute lock-free: writers
            # never block the read itself (the snapshot handoff).
            scope = self.monitor.database.transactions.read_snapshot()
            with self.rwlock.read_locked():
                scope.__enter__()
            try:
                yield
            finally:
                scope.__exit__(None, None, None)

    def _run_select(
        self, session: ServerSession, sql: str, params
    ) -> dict:
        with self._read_scope(session):
            report = self.monitor.execute_with_report(
                sql, session.purpose, user=session.user, params=params
            )
        session.statements += 1
        return ok_response(
            result=result_to_wire(report.result),
            cache_hit=report.cache_hit,
            checks=report.compliance_checks,
        )

    def _run_explain(self, session: ServerSession, statement: ast.Explain) -> dict:
        with self._read_scope(session):
            result = self.monitor.explain(
                statement.statement,
                session.purpose,
                user=session.user,
                analyze=statement.analyze,
            )
        # Deliberately not counted in session.statements: EXPLAIN is plan
        # inspection, not data access, and must not skew per-session stats.
        return ok_response(result=result_to_wire(result), explain=True)

    def _run_dml(self, session: ServerSession, sql: str) -> dict:
        if session.txn is not None:
            # Transactional DML stages privately — no lock needed; the
            # write-write race is settled at COMMIT (first committer wins).
            with txn_scope(session.txn):
                affected = self.monitor.execute_statement(
                    sql, session.purpose, user=session.user
                )
        else:
            with self.rwlock.write_locked():
                affected = self.monitor.execute_statement(
                    sql, session.purpose, user=session.user
                )
        session.statements += 1
        return ok_response(rowcount=affected)

    def _run_txn(self, session: ServerSession, statement: ast.Statement) -> dict:
        """BEGIN/COMMIT/ROLLBACK against the session's transaction handle."""
        transactions = self.monitor.database.transactions
        if isinstance(statement, ast.Begin):
            if session.txn is not None:
                raise TransactionError("a transaction is already in progress")
            # Under the read lock: a transaction cannot pin its snapshot
            # in the middle of an exclusive admin batch (see _read_scope).
            with self.rwlock.read_locked():
                session.txn = transactions.begin()
            self.monitor._count_txn("begin")
            return ok_response(
                txn=session.txn.txn_id,
                snapshot_ts=session.txn.snapshot.ts,
                epoch=session.txn.snapshot.catalog_version,
            )
        if isinstance(statement, ast.Commit):
            if session.txn is None:
                raise TransactionError("COMMIT without an active transaction")
            txn = session.txn
            session.txn = None
            try:
                # Under the write lock: commits order against autocommit
                # DML and in-process admin mutations (`exclusive()`).
                with self.rwlock.write_locked():
                    ts = transactions.commit(txn)
            except (CatalogConflictError, WriteConflictError):
                session.conflicts += 1
                self.monitor._count_txn("conflict")
                raise
            session.commits += 1
            self.monitor._count_txn("commit")
            return ok_response(committed=True, commit_ts=ts)
        if session.txn is None:
            raise TransactionError("ROLLBACK without an active transaction")
        txn = session.txn
        session.txn = None
        transactions.rollback(txn)
        session.rollbacks += 1
        self.monitor._count_txn("rollback")
        return ok_response(rolled_back=True)

    def _run_prepare(self, session: ServerSession, sql: str) -> dict:
        with self._read_scope(session):
            prepared = self.monitor.prepare(sql, session.purpose)
        statement_id = session.add_prepared(prepared)
        return ok_response(
            statement=statement_id,
            parameters=[p.placeholder for p in prepared.parameters],
        )

    def _run_execute_prepared(
        self, session: ServerSession, prepared, params
    ) -> dict:
        with self._read_scope(session):
            report = prepared.execute_with_report(
                params=params, user=session.user
            )
        session.statements += 1
        return ok_response(
            result=result_to_wire(report.result),
            cache_hit=report.cache_hit,
            checks=report.compliance_checks,
        )

    # -- observability ----------------------------------------------------------------

    def stats(self) -> dict:
        """Everything observable about the service, one JSON object."""
        assert self._pool is not None
        with self._state_lock:
            server = {
                "host": self.host,
                "port": self.port,
                "running": self._running,
                "connections": len(self._connections),
                "requests": self._requests,
                "denials": self._denials,
                "busy_responses": self._busy_responses,
            }
        return {
            "server": server,
            "sessions": self.sessions.stats(),
            "admission": self._pool.stats(),
            "plan_cache": self.monitor.plan_cache_info(),
            "optimizer": {
                "mode": self.monitor.optimizer_mode,
                "bitmaps": self.monitor.database.policy_bitmaps.stats(),
            },
            "executor": {
                "mode": self.monitor.executor_mode,
                "batch_size": self.monitor.batch_size,
            },
            "indexes": {
                "mode": self.monitor.indexes_mode,
                "manager": self.monitor.database.indexes.stats(),
                "catalog": self.monitor.database.indexes.describe(),
                "statistics": {
                    "collections": (
                        self.monitor.database.statistics.stats()["collections"]
                    ),
                    "tables": self.monitor.database.statistics.summary(),
                },
            },
            "lock": self.rwlock.state(),
            "transactions": self._txn_stats(),
            "catalog": self._catalog_stats(),
        }

    def _catalog_stats(self) -> dict:
        database = self.monitor.database
        stats = database.catalog.stats()
        stats["active_snapshots"] = database.transactions.active_count()
        return stats

    def _txn_stats(self) -> dict:
        database = self.monitor.database
        stats = {"manager": database.transactions.stats_dict()}
        if database.durability is not None:
            stats["wal"] = database.durability.stats()
        return stats
