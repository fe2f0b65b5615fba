"""The threaded transport of the enforced-query service.

:class:`QueryServer` fronts one :class:`~repro.core.monitor.EnforcementMonitor`
with a TCP listener.  The protocol itself lives in
:class:`~repro.server.core.RequestCore`; this module supplies what is
particular to serving it from threads:

* **One thread per connection.**  A connection's requests are read,
  executed and answered on that connection's own thread.
* **Admission slots.**  A statement runs inside the core's admission
  accounting and behind a semaphore of ``workers`` permits.
* **Snapshot handoff (MVCC).**  An autocommit statement other than DML
  (``query``, ``prepare``, ``execute_prepared``, EXPLAIN) pins a snapshot
  (commit ts × catalog version) and then reads lock-free, so DML and
  policy updates never stall readers.  Ordering writers is the engine's
  job, not this transport's: pinning a snapshot, every commit and
  autocommit DML take the transaction manager's write fence
  (:meth:`~repro.engine.mvcc.TransactionManager.exclusive`, which
  :meth:`QueryServer.exclusive` hands to in-process admin mutations), and
  multi-statement transactions settle write-write races
  first-committer-wins at COMMIT.
"""

from __future__ import annotations

import socket
import threading
from contextlib import nullcontext, suppress

from ..core.monitor import EnforcementMonitor
from ..errors import WireProtocolError
from ..obs.metrics import MetricsRegistry
from .core import Job, Reply, Transport
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

    def exclusive(self):
        """Exclusive access for administrative mutations: the engine's
        write fence.

        Policy changes go through the admin API in-process, not over the
        wire; wrapping them in ``with server.exclusive():`` orders them
        against in-flight query traffic exactly like DML — no reader pins
        its snapshot and no writer commits while the mutation is
        mid-flight, and every later read sees all of it.
        """
        return self.monitor.database.transactions.exclusive()

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
        """Run one admitted statement on this connection's thread.

        BEGIN, COMMIT and DML call the engine, which orders them itself.
        Any other autocommit statement reads under an ephemeral snapshot;
        inside an open transaction it reads the session's snapshot.
        """
        transactions = self.monitor.database.transactions
        if job.kind == "begin":
            outcome = transactions.begin()
        elif job.kind == "commit":
            with self.core.committing(job.session) as txn:
                outcome = transactions.commit(txn)
        else:
            autocommit_read = job.session.txn is None and job.kind != "dml"
            with transactions.read_snapshot() if autocommit_read else nullcontext():
                outcome = self.core.run_local(job)
        return self.core.complete(job, outcome)

    # -- observability ----------------------------------------------------------------

    def stats(self) -> dict:
        """Everything observable about the service, one JSON object."""
        with self._state_lock:
            server = self._server_section(len(self._connections))
        return self.core.stats(server)
