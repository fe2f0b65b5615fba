"""The asyncio transport of the enforced-query service, over shards.

:class:`AsyncQueryServer` is the second transport of
:class:`~repro.server.core.RequestCore` — same protocol as
:class:`~repro.server.server.QueryServer` — with one event loop
multiplexing every connection and a
:class:`~repro.shard.coordinator.ShardCoordinator` for a backend:

* SELECTs scatter to the shard workers (or run on the coordinator's local
  replica when the router says ``LOCAL``); DML and policy writes go through
  the coordinator's fenced two-phase epoch broadcast.
* A session transaction is pinned on the coordinator's **local replica**:
  a shard worker cannot share the coordinator's snapshot, so every
  statement inside an open transaction runs locally (route
  ``"txn-local"``), and ``COMMIT`` takes the write fence and resyncs the
  written tables to the shards, like autocommit DML.
* The fence is the coordinator's *async* readers–writer lock, which orders
  scatters against the shards' copies (the local replica's commits are
  ordered by its engine's write fence, as on the threaded transport); an
  admission slot is an :class:`asyncio.Semaphore` permit.
* The event loop runs on one daemon thread, so the blocking
  ``start()``/``stop()``/context-manager lifecycle — and the synchronous
  :class:`~repro.server.client.Client` — work unchanged.

``stats`` gains ``server.loop`` and a ``shards`` section (routing counts,
epochs, per-shard rows); ``lock`` is the fence's state.
"""

from __future__ import annotations

import asyncio
import threading
from typing import TYPE_CHECKING

from ..errors import WireProtocolError
from .core import Job, Reply, Transport
from .protocol import recv_message_async, send_message_async
from .sessions import ServerSession

if TYPE_CHECKING:  # import at runtime would close a package cycle:
    # repro.shard.coordinator imports repro.server.protocol, whose package
    # __init__ imports this module.
    from ..shard.coordinator import ShardCoordinator


class AsyncQueryServer(Transport):
    """An asyncio TCP query service over a shard coordinator."""

    def __init__(
        self,
        coordinator: "ShardCoordinator",
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrent: int = 8,
        max_pending: int = 32,
    ):
        super().__init__(
            coordinator.monitor,
            host,
            port,
            max_concurrent,
            max_pending,
            coordinator.metrics,
        )
        self.coordinator = coordinator
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

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
        """Stop admitting, signal the loop to shut down, join its thread."""
        if not self._running:
            return
        self._running = False
        self.core.accepting = False
        assert self._loop is not None and self._stop_event is not None
        self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

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
        self._slots = asyncio.Semaphore(self.core.workers)
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self.core.accepting = True
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

    # -- execution --------------------------------------------------------------------

    async def _handle(
        self, session: ServerSession | None, request: dict
    ) -> Reply:
        """One request → ``(response, session, keep_connection_open)``."""
        step = self.core.handle(session, request)
        if isinstance(step, Reply):
            return step
        assert self._slots is not None
        try:
            if step.kind == "stats":
                response = self.core.stats_reply(await self.stats())
            else:
                with self.core.admitted():
                    async with self._slots:
                        response = await self._execute(step)
        except Exception as exc:  # answered, never fatal to the connection
            response = self.core.failure(session, exc)
        return Reply(response, session)

    async def _execute(self, job: Job) -> dict:
        """Run one admitted statement on this connection's task."""
        coordinator, session, kind = self.coordinator, job.session, job.kind
        if kind == "begin":
            # Under the read fence so the snapshot never begins between the
            # two phases of an in-flight epoch broadcast.
            async with coordinator.fence.read_locked():
                txn = self.monitor.database.transactions.begin()
            return self.core.complete(job, txn)
        if kind == "commit":
            with self.core.committing(session) as txn:
                commit_ts = await coordinator.commit(txn)
            return self.core.complete(job, commit_ts)
        if session.txn is not None:
            # Snapshot reads cannot scatter — the shard replicas do not
            # keep the coordinator's row history — so an open
            # transaction works on the local replica under its snapshot,
            # fence-free (that is the point of MVCC); DML stages privately
            # and the shards see the rows at COMMIT's resync.
            await asyncio.sleep(0)
            return self.core.complete(
                job,
                self.core.run_local(job),
                route="txn-local",
                epoch=session.txn.snapshot.catalog_version,
            )
        if kind in ("select", "execute_prepared"):
            # A prepared statement re-dispatches through the coordinator so
            # it scatters exactly like the equivalent ad-hoc query; the
            # purpose stays the one it was prepared under.
            sql, purpose = (
                (job.sql, session.purpose)
                if kind == "select"
                else (job.prepared.original_sql, job.prepared.purpose)
            )
            report = await coordinator.query(
                sql, purpose, user=session.user, params=job.params
            )
            return self.core.complete(
                job, report, route=report.route, epoch=report.epoch
            )
        if kind == "dml":
            outcome = await coordinator.execute(
                job.sql, session.purpose, user=session.user
            )
        else:
            # `prepare` and EXPLAIN are plan-level work: they run on the
            # coordinator's local replica (plans are per-replica), under the
            # read fence.
            async with coordinator.fence.read_locked():
                outcome = self.core.run_local(job)
        return self.core.complete(job, outcome)

    # -- observability --------------------------------------------------------------------

    async def stats(self) -> dict:
        """The shared ``stats`` shape plus a ``shards`` section."""
        return self.core.stats(
            {**self._server_section(len(self._writers)), "loop": "asyncio"},
            lock=self.coordinator.fence.state(),
            shards=await self.coordinator.stats(),
        )
