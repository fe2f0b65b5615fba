"""Shared fixtures: small instances of the running example, and the two
guards that keep a red build red — a census failing any test that leaves
a thread running, and a watchdog that ends a run whose shutdown hangs."""

from __future__ import annotations

import faulthandler
import sys
import threading
import time
import traceback

import pytest

from repro.workload import apply_experiment_policies, build_patients_scenario


@pytest.fixture(scope="session")
def scenario():
    """A small patients scenario (30 patients x 10 samples), no policies.

    Session-scoped and treated as read-only by tests; tests that install
    policies use the function-scoped ``policy_scenario`` instead.
    """
    return build_patients_scenario(patients=30, samples_per_patient=10)


@pytest.fixture()
def fresh_scenario():
    """A function-scoped scenario tests may mutate freely."""
    return build_patients_scenario(patients=20, samples_per_patient=5)


@pytest.fixture()
def policy_scenario():
    """A scenario with scattered policies at selectivity 0.4 installed."""
    instance = build_patients_scenario(patients=25, samples_per_patient=8)
    apply_experiment_policies(instance, selectivity=0.4, seed=99)
    return instance


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files under tests/golden/ and "
        "tests/bench/golden/ instead of comparing",
    )


@pytest.fixture()
def update_golden(request):
    """True when the run should rewrite golden files instead of asserting."""
    return bool(request.config.getoption("--update-golden"))


#: Seconds a test's leftover threads get, all together, to finish.
THREAD_JOIN_S = 2.0

#: Seconds the interpreter may take to exit once the session has finished.
SHUTDOWN_WATCHDOG_S = 60.0


@pytest.fixture(autouse=True)
def thread_census(request):
    """Fail the test that leaves a thread running, naming it with its stack.

    Threads alive after the test that were not alive before it get
    :data:`THREAD_JOIN_S` to end.  A thread that outlives its test spins
    or blocks through every later one, and a non-daemon one hangs the
    interpreter's exit after the summary is printed.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + THREAD_JOIN_S
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
    frames = sys._current_frames()
    leaked = [
        thread for thread in threading.enumerate()
        if thread not in before and thread.ident in frames
    ]
    if leaked:
        stacks = "\n".join(
            f"{thread.name} (daemon={thread.daemon}):\n"
            + "".join(traceback.format_stack(frames[thread.ident]))
            for thread in leaked
        )
        pytest.fail(
            f"{request.node.nodeid} left {len(leaked)} thread(s) running:\n"
            f"{stacks}",
            pytrace=False,
        )


def pytest_sessionfinish(session, exitstatus):
    """Arm a shutdown watchdog: should the interpreter still be running
    :data:`SHUTDOWN_WATCHDOG_S` after the session (a thread nobody
    joins), dump every thread's stack and exit non-zero."""
    faulthandler.dump_traceback_later(
        SHUTDOWN_WATCHDOG_S, exit=True, file=sys.__stderr__
    )
