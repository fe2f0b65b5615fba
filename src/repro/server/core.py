"""The request core: the wire protocol above the framing, implemented once.

:class:`RequestCore` is sans-IO — no sockets, no event loop, no lock other
than the one guarding its counters.  It owns everything between a decoded
frame and the enforcement monitor that does not depend on *how* the server
waits: the verb table and field validation, the per-connection session
state machine (``hello``/``bye``/``set_purpose``/``close_prepared``, the
``BEGIN``/``COMMIT``/``ROLLBACK`` rules), the exception → error-code
mapping with its denial accounting, admission accounting, every response
shape, the metric registrations and the shared ``stats`` sections.

:meth:`RequestCore.handle` turns one request into either a finished
:class:`Reply` or a validated :class:`Job`.  A transport
(:class:`~repro.server.server.QueryServer` on threads,
:class:`~repro.server.async_server.AsyncQueryServer` on an event loop) does
only what differs between the two: it runs a job inside
:meth:`RequestCore.admitted` behind its own semaphore (and snapshot scope
or shard fence), against its own backend (the monitor, or a shard
coordinator), and hands the outcome to :meth:`RequestCore.complete` — or
the exception to :meth:`RequestCore.failure` — to be encoded.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import NamedTuple

from ..core.monitor import EnforcementMonitor, PreparedEnforcedQuery
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
from ..sql import ast
from .protocol import (
    DENIAL_CODES,
    E_INTERNAL,
    E_NO_SESSION,
    E_PROTOCOL,
    error_code_for,
    error_response,
    ok_response,
    result_to_wire,
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


def _required(request: dict, field: str) -> str:
    try:
        return str(request[field])
    except KeyError:
        raise WireProtocolError(
            f"{request.get('op')!r} requires a {field!r} field"
        ) from None


class Reply(NamedTuple):
    """A finished answer: the frame to send, the connection's session from
    here on, and whether the connection stays open."""

    response: dict
    session: ServerSession | None
    keep_open: bool = True


@dataclass
class Job:
    """A validated request only a transport can finish.

    ``kind`` is ``stats`` (answered outside admission) or a statement:
    ``select`` / ``prepare`` (``sql``, ``params``), ``dml`` (``sql`` and
    the ``statement`` parsed from it), ``explain`` (``statement``),
    ``execute_prepared`` (``prepared``, ``params``), ``begin`` or
    ``commit``.
    """

    kind: str
    session: ServerSession | None
    sql: str | None = None
    params: object = None
    statement: ast.Statement | None = None
    prepared: PreparedEnforcedQuery | None = None


class RequestCore:
    """Protocol state and accounting shared by every transport."""

    def __init__(
        self,
        monitor: EnforcementMonitor,
        workers: int,
        max_pending: int,
        metrics: "MetricsRegistry | None" = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.monitor = monitor
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
        #: Cleared by a transport's ``stop()``: nothing is admitted after it.
        self.accepting = True
        self._lock = threading.Lock()
        self._requests = 0
        self._denials = 0
        self._in_flight = 0
        self._submitted = 0
        self._rejected = 0
        self._completed = 0

    # -- dispatch -------------------------------------------------------------------

    def handle(
        self, session: ServerSession | None, request: dict
    ) -> "Reply | Job":
        """One decoded request → a finished reply, or a job to execute."""
        with self._lock:
            self._requests += 1
        op = request.get("op")
        self.metrics.counter("repro_requests_total").inc(verb=str(op))
        try:
            if op == "hello":
                return self._op_hello(session, request)
            if op == "bye":
                if session is not None:
                    self.sessions.close(session.id)
                return Reply(ok_response(goodbye=True), None, False)
            if op == "stats":
                return Job("stats", session)
            if not isinstance(op, str):
                raise WireProtocolError("request has no 'op' field")
            if session is None:
                return Reply(
                    error_response(
                        E_NO_SESSION, f"{op!r} requires a session; send 'hello'"
                    ),
                    session,
                )
            verb = self._VERBS.get(op)
            if verb is None:
                raise WireProtocolError(f"unknown verb {op!r}")
            step = verb(self, session, request)
            return step if isinstance(step, Job) else Reply(step, session)
        except Exception as exc:  # answered, never fatal to the connection
            return Reply(self.failure(session, exc), session)

    def failure(self, session: ServerSession | None, exc: Exception) -> dict:
        """The error response for ``exc``, with denials counted."""
        if isinstance(exc, WireProtocolError):
            return error_response(E_PROTOCOL, str(exc))
        if not isinstance(exc, ReproError):  # a server bug: name the type
            return error_response(E_INTERNAL, f"{type(exc).__name__}: {exc}")
        code = error_code_for(exc)
        if code in DENIAL_CODES:
            with self._lock:
                self._denials += 1
            if session is not None:
                session.denials += 1
            self.metrics.counter("repro_denials_total").inc()
        return error_response(code, str(exc))

    # -- session verbs ---------------------------------------------------------------

    def _op_hello(self, session: ServerSession | None, request: dict) -> Reply:
        if session is not None:
            raise WireProtocolError(
                "session already established on this connection"
            )
        user = _required(request, "user")
        purpose = _required(request, "purpose")
        opened = self.sessions.open(user, purpose)
        return Reply(
            ok_response(session=opened.id, user=user, purpose=purpose), opened
        )

    def _op_set_purpose(self, session: ServerSession, request: dict) -> dict:
        purpose = _required(request, "purpose")
        session.session.set_purpose(purpose)
        return ok_response(purpose=purpose)

    def _op_close_prepared(self, session: ServerSession, request: dict) -> dict:
        statement_id = _required(request, "statement")
        session.close_prepared(statement_id)
        return ok_response(closed=statement_id)

    # -- statement verbs ---------------------------------------------------------------

    def _op_query(self, session: ServerSession, request: dict) -> Job:
        return Job(
            "select",
            session,
            sql=_required(request, "sql"),
            params=_wire_params(request.get("params")),
        )

    def _op_execute(self, session: ServerSession, request: dict) -> "Job | dict":
        sql = _required(request, "sql")
        # Parse errors are answered inline.  The one parse is reused: a
        # SELECT's by the monitor's memo, a DML statement's by the job.
        statement = self.monitor.parse(sql)
        if isinstance(statement, ast.Begin):
            if session.txn is not None:
                raise TransactionError("a transaction is already in progress")
            return Job("begin", session)
        if isinstance(statement, ast.Commit):
            if session.txn is None:
                raise TransactionError("COMMIT without an active transaction")
            return Job("commit", session)
        if isinstance(statement, ast.Rollback):
            if session.txn is None:
                raise TransactionError("ROLLBACK without an active transaction")
            # Needs no fence and frees resources, so it bypasses admission.
            session.abandon_txn()
            session.rollbacks += 1
            self.monitor._count_txn("rollback")
            return ok_response(rolled_back=True)
        if isinstance(statement, ast.Explain):
            return Job("explain", session, statement=statement)
        if isinstance(statement, (ast.Select, ast.SetOperation)):
            return Job("select", session, sql=sql)
        return Job("dml", session, sql=sql, statement=statement)

    def _op_prepare(self, session: ServerSession, request: dict) -> Job:
        return Job("prepare", session, sql=_required(request, "sql"))

    def _op_execute_prepared(self, session: ServerSession, request: dict) -> Job:
        return Job(
            "execute_prepared",
            session,
            prepared=session.get_prepared(_required(request, "statement")),
            params=_wire_params(request.get("params")),
        )

    _VERBS = {
        "set_purpose": _op_set_purpose,
        "query": _op_query,
        "execute": _op_execute,
        "prepare": _op_prepare,
        "execute_prepared": _op_execute_prepared,
        "close_prepared": _op_close_prepared,
    }

    # -- admission --------------------------------------------------------------------

    @contextmanager
    def admitted(self):
        """Account for one statement from admission to completion.

        One bound: at most ``workers + max_pending`` statements are in
        flight.  The transport's semaphore (``workers`` permits, acquired
        inside this scope) lets ``workers`` of them run, so at most
        ``max_pending`` wait; anything beyond is answered ``server_busy``
        at once — explicit backpressure, never an unbounded queue.
        """
        with self._lock:
            refusal = None
            if not self.accepting:
                refusal = "server is shutting down"
            elif self._in_flight >= self.workers + self.max_pending:
                refusal = f"admission queue full ({self.max_pending} pending)"
            if refusal is not None:
                self._rejected += 1
                self.metrics.counter("repro_admission_rejections_total").inc()
                raise ServerBusyError(refusal)
            self._in_flight += 1
            self._submitted += 1
        try:
            yield
        finally:
            with self._lock:
                self._in_flight -= 1
                self._completed += 1

    # -- execution and encoding -------------------------------------------------------

    def run_local(self, job: Job):
        """Execute a statement job on the monitor; returns its outcome.

        Inside an open transaction the statement runs under the session's
        snapshot (which pins data versions and the catalog version alike);
        otherwise in whatever scope the calling transport has established.
        """
        session, monitor = job.session, self.monitor
        scope = nullcontext() if session.txn is None else txn_scope(session.txn)
        with scope:
            if job.kind == "select":
                return monitor.execute_with_report(
                    job.sql, session.purpose, user=session.user, params=job.params
                )
            if job.kind == "execute_prepared":
                return job.prepared.execute_with_report(
                    params=job.params, user=session.user
                )
            if job.kind == "explain":
                return monitor.explain(
                    job.statement.statement,
                    session.purpose,
                    user=session.user,
                    analyze=job.statement.analyze,
                )
            if job.kind == "prepare":
                return monitor.prepare(job.sql, session.purpose)
            return monitor.execute_statement(
                job.statement, session.purpose, user=session.user, text=job.sql
            )

    @contextmanager
    def committing(self, session: ServerSession):
        """Detach the session's transaction for ``COMMIT`` and count how the
        transport's fenced commit inside this scope ends.

        The handle is detached first: whether the commit succeeds or loses
        first-committer-wins validation, the transaction is over.
        """
        txn, session.txn = session.txn, None
        try:
            yield txn
        except (CatalogConflictError, WriteConflictError):
            session.conflicts += 1
            self.monitor._count_txn("conflict")
            raise
        session.commits += 1
        self.monitor._count_txn("commit")

    def complete(self, job: Job, outcome, **routing) -> dict:
        """The success response for a job's ``outcome``.

        ``routing`` (``route``, ``epoch``) is what a sharded transport adds
        to result responses; other shapes are identical on every transport.
        """
        session, kind = job.session, job.kind
        if kind in ("select", "execute_prepared"):
            session.statements += 1
            return ok_response(
                result=result_to_wire(outcome.result),
                cache_hit=outcome.cache_hit,
                checks=outcome.compliance_checks,
                **routing,
            )
        if kind == "explain":
            # Deliberately not counted in session.statements: EXPLAIN is plan
            # inspection, not data access, and must not skew per-session stats.
            return ok_response(result=result_to_wire(outcome), explain=True)
        if kind == "dml":
            session.statements += 1
            return ok_response(rowcount=int(outcome))
        if kind == "prepare":
            return ok_response(
                statement=session.add_prepared(outcome),
                parameters=[p.placeholder for p in outcome.parameters],
            )
        if kind == "begin":
            session.txn = outcome
            self.monitor._count_txn("begin")
            return ok_response(
                txn=outcome.txn_id,
                snapshot_ts=outcome.snapshot.ts,
                epoch=outcome.snapshot.catalog_version,
            )
        return ok_response(committed=True, commit_ts=outcome)

    # -- observability ----------------------------------------------------------------

    def stats(self, server: dict, **sections) -> dict:
        """The ``stats`` object: ``server`` (the transport's view of itself)
        completed with the core's counters, the shared sections, and the
        transport's own ``sections`` (the async transport's ``lock``, the
        coordinator's fence, and ``shards``)."""
        monitor, database = self.monitor, self.monitor.database
        with self._lock:
            server = {
                **server,
                "requests": self._requests,
                "denials": self._denials,
                "busy_responses": self._rejected,
            }
            admission = {
                "workers": self.workers,
                "max_pending": self.max_pending,
                # Waiting, not running: the semaphore keeps every permit busy
                # while anything waits.
                "pending": max(0, self._in_flight - self.workers),
                "submitted": self._submitted,
                "rejected": self._rejected,
                "completed": self._completed,
            }
        transactions = {"manager": database.transactions.stats_dict()}
        if database.durability is not None:
            transactions["wal"] = database.durability.stats()
        catalog = database.catalog.stats()
        catalog["active_snapshots"] = database.transactions.active_count()
        return {
            "server": server,
            "sessions": self.sessions.stats(),
            "admission": admission,
            "plan_cache": monitor.plan_cache_info(),
            "optimizer": {
                "mode": monitor.optimizer_mode,
                "bitmaps": database.policy_bitmaps.stats(),
            },
            "executor": {"batch_size": monitor.batch_size},
            "indexes": {
                "manager": database.indexes.stats(),
                "catalog": database.indexes.describe(),
            },
            "transactions": transactions,
            "catalog": catalog,
            **sections,
        }

    def stats_reply(self, stats: dict) -> dict:
        """The ``stats`` verb's response around a transport's ``stats()``."""
        self.metrics.gauge("repro_connections").set(
            stats["server"]["connections"]
        )
        wal = stats["transactions"].get("wal")
        if wal is not None:
            self._scrape_wal(wal)
        return ok_response(stats=stats, metrics=self.metrics.render())

    def _scrape_wal(self, wal: dict) -> None:
        """Bring the WAL counters up to the durability manager's totals
        (the log has no registry of its own; a scrape reads its stats)."""

        def catch_up(name: str, total: int, **labels: str) -> None:
            counter = self.metrics.counter(name)
            counter.inc(max(0, total - counter.value(**labels)), **labels)

        with self._lock:
            for event in ("append", "sync", "checkpoint"):
                catch_up("repro_wal_total", wal[event + "s"], event=event)
            for op, total in wal["record_bytes"].items():
                catch_up("repro_wal_bytes_total", total, op=op)


class Transport:
    """What both transports keep the same way around a :class:`RequestCore`;
    a subclass adds ``start()``, ``stop()`` and its IO loop."""

    def __init__(self, monitor, host, port, workers, max_pending, metrics=None):
        self.monitor = monitor
        self.host = host
        self.port = port
        self.core = RequestCore(monitor, workers, max_pending, metrics)
        self.metrics = self.core.metrics
        self.sessions = self.core.sessions
        self._running = False

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is reachable at (port 0 → assigned)."""
        return (self.host, self.port)

    def _server_section(self, connections: int) -> dict:
        """The transport's own part of ``stats["server"]``."""
        return {
            "host": self.host,
            "port": self.port,
            "running": self._running,
            "connections": connections,
        }
