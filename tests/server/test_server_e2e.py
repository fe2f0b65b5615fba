"""End-to-end acceptance: concurrent sessions match a serial reference.

Eight clients run concurrently against one server, each mixing plain
queries, prepared statements, purpose switches (including one to a purpose
the user does not hold, which must be denied) and DML on the client's own
rows.  A twin scenario — built from identical seeds — is driven serially
through core :class:`~repro.core.session.Session` objects, and every
client's transcript must match the serial one exactly, denials included.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Session
from repro.errors import RemoteError, UnauthorizedPurposeError
from repro.server import Client, QueryServer
from repro.workload import apply_experiment_policies, build_patients_scenario

CLIENTS = 8
GRANTED = "p6"
DENIED = "p7"  # exists in the purpose set, never granted to the test users


def make_scenario():
    scenario = build_patients_scenario(
        patients=16, samples_per_patient=4, seed=77
    )
    apply_experiment_policies(scenario, selectivity=0.5, seed=5)
    for index in range(CLIENTS):
        scenario.admin.grant_purpose(f"user{index}", GRANTED)
    return scenario


def _statements(index: int) -> dict:
    return {
        "sensed": (
            "select timestamp, beats from sensed_data "
            f"where watch_id = 'watch{index}'"
        ),
        "prepared": "select temperature from sensed_data where watch_id = ?",
        "dml": (
            f"update users set nutritional_profile_id = {100 + index} "
            f"where user_id = 'user{index}'"
        ),
        "after": (
            "select user_id, nutritional_profile_id from users "
            f"where user_id = 'user{index}'"
        ),
    }


def serial_transcript(scenario, index: int) -> list:
    """The reference run: same statements, core Session, no server."""
    sql = _statements(index)
    user = f"user{index}"
    session = Session(scenario.monitor, user=user, purpose=GRANTED)
    transcript: list = []
    transcript.append(("sensed", sorted(session.query(sql["sensed"]).rows)))
    prepared = scenario.monitor.prepare(sql["prepared"], GRANTED)
    for _ in range(2):
        rows = prepared.execute([f"watch{index}"], user=user).rows
        transcript.append(("prepared", sorted(rows)))
    session.set_purpose(DENIED)
    try:
        session.query(sql["sensed"])
        transcript.append(("denied", None))
    except UnauthorizedPurposeError:
        transcript.append(("denied", "unauthorized_purpose"))
    session.set_purpose(GRANTED)
    transcript.append(("dml", session.execute(sql["dml"])))
    transcript.append(("after", sorted(session.query(sql["after"]).rows)))
    return transcript


def client_transcript(address, index: int) -> list:
    """The same statement mix, spoken over the wire."""
    sql = _statements(index)
    transcript: list = []
    with Client(*address) as client:
        client.hello(f"user{index}", GRANTED)
        transcript.append(
            ("sensed", sorted(client.query(sql["sensed"]).rows))
        )
        statement = client.prepare(sql["prepared"])
        for _ in range(2):
            rows = client.execute_prepared(statement, [f"watch{index}"]).rows
            transcript.append(("prepared", sorted(rows)))
        client.close_prepared(statement)
        client.set_purpose(DENIED)
        try:
            client.query(sql["sensed"])
            transcript.append(("denied", None))
        except RemoteError as exc:
            transcript.append(("denied", exc.code))
        client.set_purpose(GRANTED)
        transcript.append(("dml", client.execute(sql["dml"])))
        transcript.append(("after", sorted(client.query(sql["after"]).rows)))
        client.bye()
    return transcript


def test_concurrent_sessions_match_serial_reference():
    serial_scenario = make_scenario()
    references = [
        serial_transcript(serial_scenario, index) for index in range(CLIENTS)
    ]

    served_scenario = make_scenario()
    transcripts: dict[int, list] = {}
    failures: list[BaseException] = []

    def run_client(address, index: int) -> None:
        try:
            transcripts[index] = client_transcript(address, index)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    with QueryServer(served_scenario.monitor, workers=4) as server:
        threads = [
            threading.Thread(target=run_client, args=(server.address, index))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures

        stats = server.stats()

    for index in range(CLIENTS):
        assert transcripts[index] == references[index], f"client {index}"

    # Wire row types survive the JSON round trip (ints stay ints).
    assert stats["plan_cache"]["hits"] > 0
    assert stats["server"]["denials"] == CLIENTS
    assert stats["sessions"]["open"] == 0  # every client said bye
    assert stats["admission"]["rejected"] == 0
    # The derived-state counters benchmarks/e2e reads keep their names;
    # every guarded table (users, sensed_data) keeps one posting index.
    bitmaps = stats["optimizer"]["bitmaps"]
    assert {"built", "row_passes", "revalidated"} <= set(bitmaps)
    assert bitmaps["postings"] == 2
    assert "rebuilds" in stats["indexes"]["manager"]


def test_stats_describe_indexes_by_rows():
    """A built index reports how many rows its entry describes, not a
    version; there are no statistics to report."""
    scenario = make_scenario()
    database = scenario.database
    database.execute("create index sd_watch on sensed_data (watch_id)")
    database.indexes.build("sd_watch")
    with QueryServer(scenario.monitor, workers=1) as server:
        with Client(*server.address) as client:
            indexes = client.stats()["indexes"]
    (entry,) = indexes["catalog"]
    assert entry["built"] and entry["rows"] == 64 and "version" not in entry
    assert set(indexes) == {"manager", "catalog"}


def test_stop_wakes_the_accept_thread():
    """``stop()`` must not rely on ``close()`` to interrupt ``accept()``:
    on Linux it does not, and the join would burn its whole timeout."""
    server = QueryServer(make_scenario().monitor).start()
    accept_thread = server._accept_thread
    assert accept_thread is not None and accept_thread.is_alive()
    began = time.monotonic()
    server.stop()
    assert not accept_thread.is_alive()
    assert time.monotonic() - began < 2


@pytest.mark.parametrize(
    "sql",
    [
        "select max(case when user_id = 'user0' then 0 else user_id end) from users",
        "select user_id from users order by case when user_id = 'user0' then 0 "
        "else user_id end",
    ],
)
def test_incomparable_values_answer_engine_error(sql):
    """MIN/MAX and ORDER BY over an int/text mix raise the engine's
    TypeMismatchError, which the wire reports as ``engine_error`` (a bare
    Python TypeError would be ``internal_error``)."""
    scenario = build_patients_scenario(patients=4, samples_per_patient=2)
    apply_experiment_policies(scenario, selectivity=0.0, seed=3)  # all rows pass
    scenario.admin.grant_purpose("user0", GRANTED)
    with QueryServer(scenario.monitor, workers=1) as server:
        with Client(*server.address) as client:
            client.hello("user0", GRANTED)
            with pytest.raises(RemoteError) as caught:
                client.query(sql)
            assert caught.value.code == "engine_error"
            assert client.query("select max(user_id) from users").rows == [("user3",)]
