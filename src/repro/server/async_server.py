"""The asyncio front end over a sharded deployment.

:class:`AsyncQueryServer` speaks exactly the wire protocol of
:class:`~repro.server.server.QueryServer` — same verbs, same error codes,
same response shapes — but replaces the thread-per-connection model with
one event loop multiplexing every connection, and replaces the local
monitor with a :class:`~repro.shard.coordinator.ShardCoordinator`:

* SELECTs scatter to the shard workers (or run on the coordinator's local
  replica when the router says ``LOCAL``); DML and policy writes go through
  the coordinator's fenced two-phase epoch broadcast.
* ``BEGIN``/``COMMIT``/``ROLLBACK`` pin a session transaction on the
  coordinator's **local replica**: a shard worker cannot share the
  coordinator's snapshot, so every statement inside an open transaction
  runs locally under :func:`~repro.engine.mvcc.txn_scope` (reported as
  route ``"txn-local"``), and ``COMMIT`` takes the write fence and pushes
  the re-partitioned rows of every written table down to the shards —
  the same resync the autocommit DML path performs.
* Concurrency control is the coordinator's *async* readers–writer fence
  instead of the sync server's thread lock; admission control is a
  semaphore + bounded pending count instead of a worker pool, answering
  overload with the same ``server_busy`` code.
* The event loop runs on one daemon thread, so the blocking
  ``start()``/``stop()``/context-manager lifecycle — and the existing
  synchronous :class:`~repro.server.client.Client` — work unchanged.

The ``stats`` verb gains a ``shards`` section (routing counts, epochs,
fence occupancy, per-shard rows) next to the sections shared with the sync
server.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import asynccontextmanager
from typing import TYPE_CHECKING

from ..engine import txn_scope
from ..errors import (
    CatalogConflictError,
    ReproError,
    ServerBusyError,
    TransactionError,
    WireProtocolError,
    WriteConflictError,
)
from ..sql import ast, parse_statement

if TYPE_CHECKING:  # import at runtime would close a package cycle:
    # repro.shard.coordinator imports repro.server.protocol, whose package
    # __init__ imports this module.
    from ..shard.coordinator import ShardCoordinator
from .protocol import (
    DENIAL_CODES,
    E_BUSY,
    E_INTERNAL,
    E_NO_SESSION,
    E_PROTOCOL,
    error_code_for,
    error_response,
    ok_response,
    recv_message_async,
    result_to_wire,
    send_message_async,
)
from .server import _wire_params
from .sessions import ServerSession, SessionManager


class AsyncQueryServer:
    """An asyncio TCP query service over a shard coordinator."""

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 8,
        max_pending: int = 32,
    ):
        self.coordinator = coordinator
        self.monitor = coordinator.monitor
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self.max_pending = max_pending
        self.metrics = coordinator.metrics
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
        self.sessions = SessionManager(self.monitor)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._running = False
        self._requests = 0
        self._denials = 0
        self._busy_responses = 0
        self._pending = 0
        self._admitted_total = 0
        self._completed = 0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "AsyncQueryServer":
        """Start the event-loop thread; returns once the port is bound."""
        if self._running:
            raise RuntimeError("server is already running")
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-async-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("async server failed to start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def stop(self) -> None:
        """Signal the loop to shut down and join its thread."""
        if not self._running:
            return
        self._running = False
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "AsyncQueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is reachable at (port 0 → assigned)."""
        return (self.host, self.port)

    def submit(self, coro):
        """Run a coroutine on the server's loop from synchronous code.

        The bridge tests and the differential battery use this to drive
        :meth:`~repro.shard.coordinator.ShardCoordinator.policy_write` (and
        friends) so coordinator mutations order against in-flight client
        traffic on the one true loop.  Returns a
        :class:`concurrent.futures.Future`.
        """
        assert self._loop is not None, "server is not running"
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._semaphore = asyncio.Semaphore(self.max_concurrent)
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._running = True
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            self._running = False
            for writer in list(self._writers):
                writer.close()
            # Drain connection tasks: closed transports end their reads, so
            # they exit on their own — cancellation is a last resort only.
            if self._conn_tasks:
                _done, pending = await asyncio.wait(
                    list(self._conn_tasks), timeout=5
                )
                for task in pending:  # pragma: no cover - stuck statements
                    task.cancel()

    # -- connection loop --------------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        session: ServerSession | None = None
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await recv_message_async(reader)
                except (WireProtocolError, OSError):
                    return
                if request is None:
                    return
                response, session, keep_open = await self._handle(
                    session, request
                )
                try:
                    await send_message_async(writer, response)
                except (OSError, ConnectionError):
                    return
                if not keep_open:
                    return
        finally:
            if session is not None:
                self.sessions.close(session.id)
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    # -- admission ---------------------------------------------------------------------

    @asynccontextmanager
    async def _admitted(self):
        """Bounded admission: at most ``max_concurrent`` statements run and
        at most ``max_pending`` more wait; everything beyond is ``server_busy``."""
        assert self._semaphore is not None
        if self._pending >= self.max_concurrent + self.max_pending:
            raise ServerBusyError(
                f"admission queue full ({self._pending} statements pending)"
            )
        self._pending += 1
        self._admitted_total += 1
        try:
            async with self._semaphore:
                yield
            self._completed += 1
        finally:
            self._pending -= 1

    # -- dispatch -----------------------------------------------------------------------

    async def _handle(
        self, session: ServerSession | None, request: dict
    ) -> tuple[dict, ServerSession | None, bool]:
        """One request → ``(response, session, keep_connection_open)``."""
        self._requests += 1
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
                self.metrics.gauge("repro_connections").set(len(self._writers))
                return (
                    ok_response(
                        stats=await self.stats(), metrics=self.metrics.render()
                    ),
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
            response = handler(session, request)
            if asyncio.iscoroutine(response):
                response = await response
            return response, session, True
        except ServerBusyError as exc:
            self._busy_responses += 1
            self.metrics.counter("repro_admission_rejections_total").inc()
            return error_response(E_BUSY, str(exc)), session, True
        except WireProtocolError as exc:
            return error_response(E_PROTOCOL, str(exc)), session, True
        except ReproError as exc:
            code = error_code_for(exc)
            if code in DENIAL_CODES:
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

    # -- session verbs ------------------------------------------------------------------

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

    # -- statement verbs (admission-controlled, coordinator-executed) --------------------

    async def _op_query(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        params = _wire_params(request.get("params"))
        async with self._admitted():
            return await self._run_select(session, sql, params)

    async def _op_execute(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        statement = parse_statement(sql)  # parse errors answered inline
        async with self._admitted():
            if isinstance(statement, (ast.Begin, ast.Commit, ast.Rollback)):
                return await self._run_txn(session, statement)
            if isinstance(statement, ast.Explain):
                if session.txn is not None:
                    with txn_scope(session.txn):
                        result = self.monitor.explain(
                            statement.statement,
                            session.purpose,
                            user=session.user,
                            analyze=statement.analyze,
                        )
                    return ok_response(
                        result=result_to_wire(result), explain=True
                    )
                result = await self.coordinator.explain(
                    statement.statement,
                    session.purpose,
                    user=session.user,
                    analyze=statement.analyze,
                )
                return ok_response(result=result_to_wire(result), explain=True)
            if isinstance(statement, (ast.Select, ast.SetOperation)):
                return await self._run_select(session, sql, None)
            if session.txn is not None:
                # Transactional DML stages privately on the local replica —
                # no fence needed; the write-write race is settled at COMMIT
                # (first committer wins) and shards see the rows at resync.
                await asyncio.sleep(0)
                with txn_scope(session.txn):
                    affected = self.monitor.execute_statement(
                        sql, session.purpose, user=session.user
                    )
                session.statements += 1
                return ok_response(rowcount=int(affected))
            affected = await self.coordinator.execute(
                sql, session.purpose, user=session.user
            )
            session.statements += 1
            return ok_response(rowcount=affected)

    async def _op_prepare(self, session: ServerSession, request: dict) -> dict:
        sql = str(self._required(request, "sql"))
        async with self._admitted():
            # Validation and parameter extraction are plan-level work, so
            # they run on the coordinator's local replica under the fence.
            async with self.coordinator.fence.read_locked():
                prepared = self.monitor.prepare(sql, session.purpose)
        statement_id = session.add_prepared(prepared)
        return ok_response(
            statement=statement_id,
            parameters=[p.placeholder for p in prepared.parameters],
        )

    async def _op_execute_prepared(
        self, session: ServerSession, request: dict
    ) -> dict:
        statement_id = str(self._required(request, "statement"))
        prepared = session.get_prepared(statement_id)
        params = _wire_params(request.get("params"))
        async with self._admitted():
            if session.txn is not None:
                await asyncio.sleep(0)
                with txn_scope(session.txn):
                    report = self.monitor.execute_with_report(
                        prepared.original_sql,
                        prepared.purpose,
                        user=session.user,
                        params=params,
                    )
                session.statements += 1
                return ok_response(
                    result=result_to_wire(report.result),
                    cache_hit=report.cache_hit,
                    checks=report.compliance_checks,
                )
            # Re-dispatch through the coordinator so the bound statement
            # scatters exactly like the equivalent ad-hoc query; the purpose
            # stays the one the statement was prepared under.
            report = await self.coordinator.query(
                prepared.original_sql,
                prepared.purpose,
                user=session.user,
                params=params,
            )
        session.statements += 1
        return ok_response(
            result=result_to_wire(report.result),
            cache_hit=report.cache_hit,
            checks=report.compliance_checks,
        )

    async def _run_select(self, session: ServerSession, sql: str, params) -> dict:
        if session.txn is not None:
            # Snapshot reads cannot scatter — the shard replicas do not
            # share the coordinator's version chains — so an open
            # transaction reads the local replica under its snapshot,
            # fence-free (that is the point of MVCC).
            await asyncio.sleep(0)
            with txn_scope(session.txn):
                report = self.monitor.execute_with_report(
                    sql, session.purpose, user=session.user, params=params
                )
            session.statements += 1
            return ok_response(
                result=result_to_wire(report.result),
                cache_hit=report.cache_hit,
                checks=report.compliance_checks,
                route="txn-local",
                epoch=session.txn.snapshot.catalog_version,
            )
        report = await self.coordinator.query(
            sql, session.purpose, user=session.user, params=params
        )
        session.statements += 1
        return ok_response(
            result=result_to_wire(report.result),
            cache_hit=report.cache_hit,
            checks=report.compliance_checks,
            route=report.route,
            epoch=report.epoch,
        )

    async def _run_txn(
        self, session: ServerSession, statement: "ast.Statement"
    ) -> dict:
        """BEGIN/COMMIT/ROLLBACK against the coordinator's local replica."""
        transactions = self.monitor.database.transactions
        if isinstance(statement, ast.Begin):
            if session.txn is not None:
                raise TransactionError("a transaction is already in progress")
            # Under the read fence so the snapshot never begins between the
            # two phases of an in-flight epoch broadcast.
            async with self.coordinator.fence.read_locked():
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
            written = txn.written_tables()
            try:
                # The write fence drains in-flight scatters so no scatter
                # straddles the commit + resync of the written tables.
                async with self.coordinator.fence.write_locked():
                    ts = transactions.commit(txn)
                    if written:
                        self.coordinator._route_cache.clear()
                        await self.coordinator._resync(tuple(written))
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

    # -- observability --------------------------------------------------------------------

    async def stats(self) -> dict:
        """The sync server's ``stats`` shape plus a ``shards`` section."""
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "running": self._running,
                "connections": len(self._writers),
                "requests": self._requests,
                "denials": self._denials,
                "busy_responses": self._busy_responses,
                "loop": "asyncio",
            },
            "sessions": self.sessions.stats(),
            "admission": {
                "workers": self.max_concurrent,
                "max_pending": self.max_pending,
                "pending": self._pending,
                "submitted": self._admitted_total,
                "rejected": self._busy_responses,
                "completed": self._completed,
            },
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
            "lock": self.coordinator.fence.state(),
            "transactions": self._txn_stats(),
            "catalog": self._catalog_stats(),
            "shards": await self.coordinator.stats(),
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
