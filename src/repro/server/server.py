"""The threaded transport of the enforced-query service.

:class:`QueryServer` fronts one :class:`~repro.core.monitor.EnforcementMonitor`
with a TCP listener.  The protocol itself lives in
:class:`~repro.server.core.RequestCore`; this module supplies what is
particular to serving it from threads:

* **One thread per connection.**  A connection's requests are read,
  executed and answered on that connection's own thread.
* **Admission slots.**  A statement runs inside the core's admission
  accounting and behind a semaphore of ``workers`` permits.
* **Snapshot handoff (MVCC).**  Enforced SELECTs (``query``, ``prepare``,
  ``execute_prepared``) pin a snapshot (commit ts × catalog version) under
  the read side of a readers–writer lock and then read lock-free, so DML
  and policy updates never stall readers; autocommit DML, ``COMMIT`` and
  in-process admin mutations (:meth:`QueryServer.exclusive`) serialize on
  the write side, and multi-statement transactions settle write-write
  races first-committer-wins at COMMIT.
"""

from __future__ import annotations

import socket
import threading
from contextlib import contextmanager, suppress

from ..core.monitor import EnforcementMonitor
from ..errors import WireProtocolError
from ..obs.metrics import MetricsRegistry
from .core import Job, Reply, Transport
from .locks import ReadWriteLock
from .protocol import recv_message, send_message
from .sessions import ServerSession


def _hang_up(sock: socket.socket) -> None:
    """Shut down, then close: ``close()`` alone does not wake a thread
    blocked in ``accept()`` or ``recv()`` on Linux."""
    with suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with suppress(OSError):
        sock.close()


class QueryServer(Transport):
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
        super().__init__(monitor, host, port, workers, max_pending, metrics)
        self.rwlock = ReadWriteLock()
        self._slots = threading.BoundedSemaphore(workers)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._conn_threads: set[threading.Thread] = set()
        self._state_lock = threading.Lock()

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
        self.core.accepting = True
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Stop admitting and accepting, drop connections, join threads."""
        if not self._running:
            return
        self._running = False
        self.core.accepting = False
        assert self._listener is not None
        _hang_up(self._listener)
        with self._state_lock:
            connections = list(self._connections)
        for conn in connections:
            _hang_up(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        # A connection thread finishes the statement it is executing, fails
        # to send on its closed socket and exits, rolling back its session.
        for thread in list(self._conn_threads):
            thread.join(timeout=5)

    @contextmanager
    def exclusive(self):
        """Exclusive access for administrative mutations.

        Policy changes go through the admin API in-process, not over the
        wire; wrapping them in ``with server.exclusive():`` orders them
        against in-flight query traffic exactly like DML — no reader pins
        its snapshot while the mutation is mid-flight, and every later read
        sees the bumped policy epoch.
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
            with suppress(OSError):
                conn.close()

    # -- execution --------------------------------------------------------------------

    def _handle(self, session: ServerSession | None, request: dict) -> Reply:
        """One request → ``(response, session, keep_connection_open)``."""
        step = self.core.handle(session, request)
        if isinstance(step, Reply):
            return step
        try:
            if step.kind == "stats":
                response = self.core.stats_reply(self.stats())
            else:
                with self.core.admitted(), self._slots:
                    response = self._execute(step)
        except Exception as exc:  # answered, never fatal to the connection
            response = self.core.failure(session, exc)
        return Reply(response, session)

    def _execute(self, job: Job) -> dict:
        """Run one admitted statement on this connection's thread."""
        transactions = self.monitor.database.transactions
        if job.kind == "begin":
            # Under the read lock: a transaction cannot pin its snapshot
            # in the middle of an exclusive admin batch (see _fenced).
            with self.rwlock.read_locked():
                outcome = transactions.begin()
        elif job.kind == "commit":
            # Under the write lock: commits order against autocommit
            # DML and in-process admin mutations (`exclusive()`).
            with self.core.committing(job.session) as txn:
                with self.rwlock.write_locked():
                    outcome = transactions.commit(txn)
        else:
            with self._fenced(job):
                outcome = self.core.run_local(job)
        return self.core.complete(job, outcome)

    @contextmanager
    def _fenced(self, job: Job):
        """Order one statement against writers.

        Inside an open transaction nothing is needed: reads see the
        session's snapshot and DML stages privately (the write-write race
        is settled at COMMIT).  Autocommit DML runs under the write lock.
        An autocommit read pins an ephemeral snapshot under the read side —
        a snapshot can never begin in the middle of an exclusive admin
        batch or a DML write — then releases the lock and executes
        lock-free: writers never block the read itself (the snapshot
        handoff).
        """
        if job.session.txn is not None:
            yield
        elif job.kind == "dml":
            with self.rwlock.write_locked():
                yield
        else:
            scope = self.monitor.database.transactions.read_snapshot()
            with self.rwlock.read_locked():
                scope.__enter__()
            try:
                yield
            finally:
                scope.__exit__(None, None, None)

    # -- observability ----------------------------------------------------------------

    def stats(self) -> dict:
        """Everything observable about the service, one JSON object."""
        with self._state_lock:
            server = self._server_section(len(self._connections))
        return self.core.stats(server, lock=self.rwlock.state())
