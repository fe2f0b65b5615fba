"""Admission accounting of the request core: bound, backpressure, drain-back.

The core is sans-IO, so the tests play the transport themselves: a
statement runs inside ``core.admitted()`` behind a semaphore of ``workers``
permits, exactly as :class:`QueryServer` and :class:`AsyncQueryServer` do.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServerBusyError
from repro.server import QueryServer
from repro.server.core import Reply, RequestCore
from repro.workload import apply_experiment_policies, build_patients_scenario

QUERY = {"op": "query", "sql": "select user_id from users"}
FAILING = {"op": "query", "sql": "select user_id from users where user_id > 3"}


@pytest.fixture(scope="module")
def monitor():
    scenario = build_patients_scenario(patients=4, samples_per_patient=2)
    apply_experiment_policies(scenario, selectivity=0.0, seed=3)  # all rows pass
    scenario.admin.grant_purpose("reader", "p6")
    return scenario.monitor


class Driver:
    """What a transport does with one request, minus the IO."""

    def __init__(self, monitor, workers: int, max_pending: int):
        self.core = RequestCore(monitor, workers, max_pending)
        self.slots = threading.Semaphore(workers)
        hello = {"op": "hello", "user": "reader", "purpose": "p6"}
        self.session = self.core.handle(None, hello).session

    def call(self, request: dict) -> dict:
        step = self.core.handle(self.session, request)
        if isinstance(step, Reply):
            return step.response
        try:
            with self.core.admitted(), self.slots:
                return self.core.complete(step, self.core.run_local(step))
        except Exception as exc:
            return self.core.failure(self.session, exc)

    def counters(self) -> tuple:
        stats = self.core.stats({})["admission"]
        return tuple(
            stats[key] for key in ("submitted", "completed", "pending", "rejected")
        )


def test_run_executes_and_returns(monitor):
    transport = Driver(monitor, workers=2, max_pending=4)
    response = transport.call(QUERY)
    assert response["ok"] and len(response["result"]["rows"]) == 4
    assert transport.counters() == (1, 1, 0, 0)


def test_worker_exceptions_propagate_to_caller(monitor):
    """A statement that raises answers its error and frees its slot."""
    transport = Driver(monitor, workers=1, max_pending=1)
    for _ in range(3):  # more failures than workers + max_pending
        assert transport.call(FAILING)["error"]["code"] == "engine_error"
    assert transport.call(QUERY)["ok"]
    assert transport.counters() == (4, 4, 0, 0)


def test_saturation_raises_server_busy_then_drains(monitor):
    transport = Driver(monitor, workers=1, max_pending=1)
    gate, running = threading.Event(), threading.Event()
    finished: list[str] = []

    def statement(name: str) -> None:
        with transport.core.admitted(), transport.slots:
            running.set()
            assert gate.wait(10)
            finished.append(name)

    threads = [
        threading.Thread(target=statement, args=(name,))
        for name in ("running", "waiting")
    ]
    try:
        threads[0].start()
        assert running.wait(5)  # holds the only permit
        threads[1].start()
        deadline = time.monotonic() + 5
        while transport.counters()[2] != 1:  # fills the only waiting place
            assert time.monotonic() < deadline
            time.sleep(0.001)
        assert transport.call(QUERY)["error"]["code"] == "server_busy"
        assert transport.counters() == (2, 0, 1, 1)
    finally:
        gate.set()
        for thread in threads:
            thread.join(timeout=5)
    assert sorted(finished) == ["running", "waiting"]

    # Back to healthy: new work is admitted and completes.
    assert transport.call(QUERY)["ok"]
    assert transport.counters() == (3, 3, 0, 1)
    assert transport.core.stats({})["server"]["busy_responses"] == 1


def test_shutdown_stops_workers(monitor):
    """After ``stop()`` nothing is admitted."""
    server = QueryServer(monitor, workers=3, max_pending=8).start()
    with server.core.admitted():
        pass
    server.stop()
    with pytest.raises(ServerBusyError):
        with server.core.admitted():
            pass
