"""Overload acceptance: saturation answers ``server_busy``, then drains.

The admission queue is made tiny (one worker, one slot) and the worker is
gated deterministically: the test holds the engine's write fence via
``server.exclusive()``, so the first admitted SELECT blocks inside the
worker and the second occupies the only queue slot.  Every further request
must be answered immediately with ``server_busy`` — no hangs, no dropped
connections — and once the gate lifts, the same connections go straight
back to successful queries.
"""

from __future__ import annotations

import threading
import time

from repro.errors import RemoteError
from repro.server import Client, QueryServer
from repro.workload import build_patients_scenario

CLIENTS = 6
SQL = "select user_id from users"


def test_saturation_yields_server_busy_and_drains_back_to_healthy():
    # The gate below blocks reads even though SELECTs execute lock-free:
    # pinning a read's snapshot takes the engine's write fence, so it waits
    # there for as long as ``exclusive()`` is held.
    scenario = build_patients_scenario(patients=10, samples_per_patient=3)
    scenario.admin.grant_purpose("reader", "p6")

    outcomes: dict[int, str] = {}
    failures: list[BaseException] = []
    started = threading.Barrier(CLIENTS + 1, timeout=10)

    def run_client(client: Client, index: int) -> None:
        try:
            started.wait()
            try:
                client.query(SQL)
                outcomes[index] = "ok"
            except RemoteError as exc:
                outcomes[index] = exc.code
        except BaseException as exc:
            failures.append(exc)

    with QueryServer(
        scenario.monitor, workers=1, max_pending=1
    ) as server:
        clients = [Client(*server.address, timeout=30) for _ in range(CLIENTS)]
        try:
            for client in clients:
                client.hello("reader", "p6")

            gate = server.exclusive()
            gate.__enter__()  # workers now block before touching the monitor
            try:
                threads = [
                    threading.Thread(target=run_client, args=(client, index))
                    for index, client in enumerate(clients)
                ]
                for thread in threads:
                    thread.start()
                started.wait()
                # No hangs even while saturated: every rejected request is
                # answered immediately (only the one executing and the one
                # queued request may still be waiting on the gate).
                deadline = time.monotonic() + 15
                while len(outcomes) < CLIENTS - 2:
                    assert time.monotonic() < deadline, outcomes
                    time.sleep(0.005)
            finally:
                gate.__exit__(None, None, None)
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures, failures

            # At most one request was executing and one queued; everyone
            # else got explicit backpressure.
            busy = [i for i, code in outcomes.items() if code == "server_busy"]
            succeeded = [i for i, code in outcomes.items() if code == "ok"]
            assert len(outcomes) == CLIENTS
            assert set(outcomes.values()) <= {"ok", "server_busy"}
            assert len(busy) >= CLIENTS - 2
            assert len(succeeded) >= 1

            # Drained back to healthy: every connection still works.
            for client in clients:
                assert client.query(SQL).columns == ["user_id"]

            stats = server.stats()
            assert stats["server"]["busy_responses"] == len(busy)
            assert stats["admission"]["rejected"] == len(busy)
            assert stats["admission"]["pending"] == 0
            # No dropped connections: all six sessions are still open.
            assert stats["sessions"]["open"] == CLIENTS
            assert stats["server"]["connections"] == CLIENTS
        finally:
            for client in clients:
                client.close()
