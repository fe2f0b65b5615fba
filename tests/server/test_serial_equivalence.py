"""Stress: concurrent readers vs a policy writer — serial equivalence.

The policy writer toggles the ``users`` table between two complementary
per-row policy states: EVEN passes the even-numbered patients and blocks
the odd ones, ODD is the exact inverse.  Each toggle rewrites one policy
per row, so without write exclusion a concurrent reader could observe a
half-applied batch — a result mixing even and odd users that *no* serial
execution can produce.  The test asserts every result returned while the
writer churns equals one of the two serial references exactly, and that
after the final toggle every session reads the final state (no result from
a stale policy epoch).
"""

from __future__ import annotations

import threading

from repro.core import Policy, PolicyRule
from repro.server import Client, QueryServer
from repro.workload import build_patients_scenario

PATIENTS = 12
READERS = 4
QUERIES_PER_READER = 25
TOGGLES = 9  # odd count: the final state differs from the initial one
SQL = "select user_id from users"


def _apply_parity_state(scenario, even_passes: bool) -> None:
    """Install the per-row policies of one state (EVEN or ODD)."""
    for patient in range(PATIENTS):
        passes = (patient % 2 == 0) == even_passes
        rule = PolicyRule.pass_all() if passes else PolicyRule.pass_none()
        scenario.admin.apply_policy(
            Policy("users", (rule,), tuple_selector=("user_id", f"user{patient}"))
        )


def test_readers_vs_policy_writer_serial_equivalence():
    scenario = build_patients_scenario(patients=PATIENTS, samples_per_patient=2)
    scenario.admin.grant_purpose("reader", "p6")

    # Serial references, computed before any concurrency exists.
    _apply_parity_state(scenario, even_passes=True)
    reference_even = sorted(scenario.monitor.execute(SQL, "p6").rows)
    _apply_parity_state(scenario, even_passes=False)
    reference_odd = sorted(scenario.monitor.execute(SQL, "p6").rows)
    assert reference_even and reference_odd
    assert not set(reference_even) & set(reference_odd)
    references = (reference_even, reference_odd)

    _apply_parity_state(scenario, even_passes=True)
    violations: list = []
    failures: list[BaseException] = []

    with QueryServer(scenario.monitor, workers=READERS + 1) as server:

        def reader() -> None:
            try:
                with Client(*server.address) as client:
                    client.hello("reader", "p6")
                    for _ in range(QUERIES_PER_READER):
                        rows = sorted(client.query(SQL).rows)
                        rows = [tuple(row) for row in rows]
                        if rows not in references:
                            violations.append(rows)
                    client.bye()
            except BaseException as exc:
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()

        even_passes = True
        for _ in range(TOGGLES):
            even_passes = not even_passes
            with server.exclusive():
                # Inside the write fence the N per-row policy updates are
                # one atomic batch from any reader's point of view.
                _apply_parity_state(scenario, even_passes=even_passes)

        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert not violations, violations[:3]

        # After the last toggle every new result must reflect the final
        # policy state — a stale-epoch plan would replay the old masks.
        final_reference = reference_odd if not even_passes else reference_even
        with Client(*server.address) as client:
            client.hello("reader", "p6")
            for _ in range(3):
                rows = [tuple(row) for row in sorted(client.query(SQL).rows)]
                assert rows == final_reference
            client.bye()
