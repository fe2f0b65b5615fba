"""Driving the server child from outside: lifecycle, sessions, timed rounds."""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.errors import ReproError
from repro.server import Client

import world
from ops import Op

HERE = Path(__file__).resolve().parent
READY_TIMEOUT = 60.0
CONTROL_TIMEOUT = 30.0


class ServerChild:
    """One ``serve.py`` subprocess; always reaped, never ``stop()``ped."""

    def __init__(self, flavor: str, wal_dir: "Path | None" = None):
        command = [sys.executable, str(HERE / "serve.py"), "--flavor", flavor]
        if wal_dir is not None:
            command += ["--wal-dir", str(wal_dir)]
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            # A random hash seed makes each child a few percent faster or
            # slower than the last for its whole life (dict/set layouts).
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        self._lines: "queue.Queue[str]" = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        try:
            words = self._line(READY_TIMEOUT).split(None, 2)
            if words[0] != "READY":
                raise RuntimeError(f"server child said {words!r} instead of READY")
        except BaseException:
            self.kill()
            raise
        self.port = int(words[1])
        #: The child's own step timings (the ``setup.*`` per-layer metrics).
        self.timings: dict = json.loads(words[2])

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put("")  # EOF

    def _line(self, timeout: float) -> str:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError("server child did not answer in time") from None
        if not line:
            raise RuntimeError("server child exited unexpectedly")
        return line.strip()

    def control(self, line: str) -> str:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        reply = self._line(CONTROL_TIMEOUT)
        if reply.startswith("ERR"):
            raise RuntimeError(reply)
        return reply

    def cpu_seconds(self) -> float:
        return float(self.control("cpu").split()[1])

    def spins(self) -> list[float]:
        """``machine.spins()`` timed on the CPU the server runs on."""
        return [float(word) for word in self.control("spins").split()[1:]]

    def kill(self) -> None:
        """SIGKILL and reap (idempotent)."""
        if self.process.returncode is None:
            self.process.kill()
            self.process.wait()
            for pipe in (self.process.stdin, self.process.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (``VmHWM``), then SIGKILL.

        Not ``ru_maxrss`` from ``wait4``: that high-water mark is not reset
        by ``exec``, so it starts at the *load generator's* size at fork time.
        """
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        peak_kib = int(status.split("VmHWM:")[1].split()[0])
        self.kill()
        return peak_kib / 1024.0


class Session:
    """One load-generator connection: a ``Client`` plus its prepared handles."""

    def __init__(self, port: int, user: str, child: "ServerChild | None" = None):
        self.client = Client("127.0.0.1", port, timeout=60.0)
        self.client.hello(user, world.PURPOSE)
        self.child = child
        self._prepared: dict[str, str] = {}

    def send(self, op: Op):
        """Send one op; a read answers its ``QueryResult``, a txn its
        ``(rowcount, commit_ts)``, a bump the control reply."""
        if op.kind == "prep":
            handle = self._prepared.get(op.sql)
            if handle is None:
                handle = self._prepared[op.sql] = self.client.prepare(op.sql)
            return self.client.execute_prepared(handle, op.params)
        if op.kind in ("sql", "post"):
            return self.client.query(op.sql)
        if op.kind == "txn":
            self.client.begin()
            affected = self.client.execute(op.sql)
            return affected, self.client.commit()
        if op.kind == "bump":
            watch, step = op.params
            return self.child.control(f"bump {watch} {step}")
        raise ValueError(f"unknown op kind {op.kind!r}")

    def timed(self, ops, out: list, stop: "threading.Event | None" = None) -> None:
        """Closed loop: send each op when the previous one has answered.

        Appends ``(op, seconds, answer)``; an error frame (denial, parse error,
        ``server_busy``…) is kept as the answer so it is counted, not raised.
        ``ops`` may be an endless generator when ``stop`` is given.
        """
        for op in ops:
            if stop is not None and stop.is_set():
                return
            begin = time.perf_counter()
            try:
                answer = self.send(op)
            except (ReproError, OSError, RuntimeError, TimeoutError) as exc:
                answer = exc
            out.append((op, time.perf_counter() - begin, answer))


def run_round(jobs: "list[tuple[Session, object, list, threading.Event | None]]") -> float:
    """Run one round's jobs concurrently (one thread each); returns its wall.

    The round ends when every job *without* a stop event has finished; jobs
    with one (background load) are then told to stop and joined.
    """
    threads = [
        (threading.Thread(target=session.timed, args=(ops, out, stop)), stop)
        for session, ops, out, stop in jobs
    ]
    begin = time.perf_counter()
    for thread, _ in threads:
        thread.start()
    for thread, stop in threads:
        if stop is None:
            thread.join()
    wall = time.perf_counter() - begin
    for thread, stop in threads:
        if stop is not None:
            stop.set()
            thread.join()
    return wall
