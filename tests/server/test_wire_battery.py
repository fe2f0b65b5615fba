"""One wire battery over both transports of the request core.

Every test runs against the threaded :class:`QueryServer` and against the
:class:`AsyncQueryServer` over one and over three shards, all built from
the same :class:`WorldRecipe`: the protocol is implemented once
(:mod:`repro.server.core`), so verbs, error codes, counters and the
``BEGIN``/``COMMIT``/``ROLLBACK`` state machine must answer alike.  What is
particular to a transport (scatter routes, the accept thread) is tested in
``test_async_server.py`` / ``test_server_e2e.py``.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.errors import RemoteError, RemoteTxnConflictError
from repro.obs import parse_exposition
from repro.server import AsyncQueryServer, Client, QueryServer
from repro.server.protocol import recv_message, send_message
from repro.shard import ShardCoordinator, WorldRecipe
from repro.shard.recipe import build_world

RECIPE = WorldRecipe.for_patients(
    patients=10, samples=4, grants=(("demo", "p6"), ("demo", "p1"))
)
PROFILE = "select nutritional_profile_id from users where user_id = ?"
BY_WATCH = "select beats from sensed_data where watch_id = ?"


@pytest.fixture(
    scope="module", params=[0, 1, 3], ids=["threaded", "async-1", "async-3"]
)
def front(request):
    """A running transport (``param`` shards; 0 = threaded) plus the two
    admin hooks the tests need: ``bump_epoch()`` and ``gate()``, a context
    manager that holds every new statement at the transport's fence."""
    shards = request.param
    if shards:
        coordinator = ShardCoordinator(RECIPE, shards)
        server = AsyncQueryServer(coordinator)
        cleanup = coordinator.close

        def on_loop(coro):
            return server.submit(coro).result(timeout=30)

        def bump_epoch() -> None:
            on_loop(coordinator.bump_epoch())

        @contextmanager
        def gate():
            on_loop(coordinator.fence.acquire_write())
            try:
                yield
            finally:
                on_loop(coordinator.fence.release_write())

    else:
        world = build_world(RECIPE)
        server = QueryServer(world.monitor)
        gate, cleanup = server.exclusive, lambda: None

        def bump_epoch() -> None:
            with server.exclusive():
                world.admin.bump_policy_epoch()

    with server:
        yield SimpleNamespace(
            server=server, sharded=bool(shards), bump_epoch=bump_epoch, gate=gate
        )
    cleanup()


def _connect(front) -> Client:
    client = Client(*front.server.address)
    client.hello("demo", "p6")
    return client


@pytest.fixture()
def client(front):
    with _connect(front) as instance:
        yield instance


@pytest.fixture()
def other(front):
    with _connect(front) as instance:
        yield instance


def _code(call, *args) -> str:
    with pytest.raises(RemoteError) as excinfo:
        call(*args)
    return excinfo.value.code


def _session(client: Client) -> dict:
    return client.stats()["sessions"]["sessions"][client.session_id]


def _set_profile(user_id: str, value: int) -> str:
    return (
        f"update users set nutritional_profile_id = {value} "
        f"where user_id = '{user_id}'"
    )


def _profile(client: Client, user_id: str):
    """``(nutritional_profile_id, route)`` of one policy-visible user."""
    answer = client.query(PROFILE, [user_id])
    return answer.rows[0][0], answer.route


def _wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + 10
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.005)


# -- session state machine and validation --------------------------------------------


def test_unknown_user_rejected_at_hello(front):
    with Client(*front.server.address) as fresh:
        assert _code(fresh.hello, "mallory", "p6") == "policy_denied"
        # The connection survives the denial and can authenticate.
        assert fresh.hello("demo", "p6")


def test_second_hello_is_a_protocol_error(client):
    assert _code(client.hello, "demo", "p1") == "protocol_error"


def test_statement_before_hello_needs_session(front):
    with Client(*front.server.address) as fresh:
        assert _code(fresh.query, "select user_id from users") == "no_session"
        assert _code(fresh.set_purpose, "p1") == "no_session"


@pytest.mark.parametrize(
    "request_",
    [
        {"op": "scatter_everything"},
        {"op": "query"},
        {"op": "set_purpose"},
        {"op": "execute_prepared"},
        {"op": "execute_prepared", "statement": "s999"},
        {"op": "query", "sql": BY_WATCH, "params": "watch1"},
    ],
    ids=["verb", "no-sql", "no-purpose", "no-statement", "unknown-id", "params"],
)
def test_invalid_request_is_a_protocol_error(client, request_):
    assert _code(client._call, request_) == "protocol_error"
    assert client.query(BY_WATCH, {"1": "watch1"}).rows  # the session is intact


def test_closed_prepared_statement_is_gone(client):
    statement = client.prepare(BY_WATCH)
    assert client.execute_prepared(statement, ["watch1"]).rows
    client.close_prepared(statement)
    assert _code(client.execute_prepared, statement, ["watch1"]) == "protocol_error"


def test_parse_errors_carry_the_parse_code(client):
    assert _code(client.query, "select from nothing at all") == "parse_error"
    assert _code(client.execute, "update set nothing") == "parse_error"


def test_unauthorized_purpose_is_a_counted_denial(client):
    before = client.stats()["server"]["denials"]
    metric_before = parse_exposition(client.metrics())["repro_denials_total"]
    client.set_purpose("p3")  # exists, never granted to demo
    assert _code(client.query, BY_WATCH, ["watch1"]) == "unauthorized_purpose"
    assert client.stats()["server"]["denials"] == before + 1
    assert _session(client)["denials"] == 1
    samples = parse_exposition(client.metrics())
    assert samples["repro_denials_total"] == metric_before + 1
    client.set_purpose("p6")  # the session survives its denial
    assert client.query(BY_WATCH, ["watch1"]).rows


def test_malformed_frame_is_answered_not_fatal(front, client):
    with socket.create_connection(front.server.address, timeout=10) as sock:
        send_message(sock, {"no_op": True})
        response = recv_message(sock)
        assert response is not None and not response["ok"]
        assert response["error"]["code"] == "protocol_error"
    # The server survives the bad client: a healthy session still works.
    assert client.query("select count(*) from users").rows


def test_bye_closes_the_session_and_the_connection(client, other):
    session_id = other.session_id
    assert session_id in client.stats()["sessions"]["sessions"]
    other.bye()
    assert session_id not in client.stats()["sessions"]["sessions"]
    assert recv_message(other._sock) is None  # the server hung up


# -- where the two copies had drifted ------------------------------------------------


def test_rowcount_is_an_int(client):
    response = client._call({"op": "execute", "sql": _set_profile("user9", 3)})
    assert response["rowcount"] == 1 and type(response["rowcount"]) is int


def test_prepare_in_a_transaction_compiles_under_its_snapshot(front, client):
    """After the epoch moves, a plan prepared inside an older transaction is
    the plan its in-transaction executions hit."""
    client.begin()
    front.bump_epoch()
    statement = client.prepare(
        "select timestamp, beats from sensed_data where watch_id = ?"
    )
    assert client.execute_prepared(statement, ["watch2"]).cache_hit
    client.rollback()


def test_admission_pending_counts_waiting_not_running(front, client, other):
    answers: list = []
    before = client.stats()["admission"]
    with front.gate():
        thread = threading.Thread(
            target=lambda: answers.append(other.query(BY_WATCH, ["watch1"]))
        )
        thread.start()
        _wait_for(
            lambda: client.stats()["admission"]["submitted"] > before["submitted"],
            "the statement was never admitted",
        )
        during = client.stats()["admission"]
        assert during["completed"] == before["completed"]  # still running
        assert during["pending"] == 0
    thread.join(timeout=10)
    assert not thread.is_alive() and len(answers) == 1


# -- write ordering ----------------------------------------------------------------------


def test_concurrent_autocommit_increments_keep_every_write(front):
    """Writers are ordered by the engine (the threaded transport has no lock
    of its own): concurrent read-modify-write statements on disjoint rows
    lose none of their increments."""
    users, rounds = ("user0", "user1", "user4", "user9"), 25
    clients = [_connect(front) for _ in users]
    failures: list[BaseException] = []
    start = threading.Barrier(len(users), timeout=10)

    def increment(connection: Client, user_id: str) -> None:
        sql = (
            "update users set nutritional_profile_id = "
            f"nutritional_profile_id + 1 where user_id = '{user_id}'"
        )
        try:
            start.wait()
            for _ in range(rounds):
                assert connection.execute(sql) == 1
        except BaseException as exc:  # surfaced on the test thread
            failures.append(exc)

    try:
        before = [_profile(clients[0], user_id)[0] for user_id in users]
        threads = [
            threading.Thread(target=increment, args=pair)
            for pair in zip(clients, users)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        after = [_profile(clients[0], user_id)[0] for user_id in users]
        assert after == [value + rounds for value in before]
    finally:
        for connection in clients:
            connection.close()


# -- BEGIN / COMMIT / ROLLBACK -----------------------------------------------------------


def test_commit_publishes_to_later_statements(front, client, other):
    before = _profile(other, "user1")[0]
    assert client.begin() > 0
    assert client.execute(_set_profile("user1", 41)) == 1
    # Its own staged write, read on the coordinator's replica when sharded.
    assert _profile(client, "user1") == (41, "txn-local" if front.sharded else None)
    assert _profile(other, "user1")[0] == before  # isolated until COMMIT
    assert client.commit() > 0
    # Visible on the shard the key lives on: COMMIT resynced the shards.
    assert _profile(other, "user1") == (41, "single" if front.sharded else None)
    session = _session(client)
    assert (session["commits"], session["txn_open"]) == (1, False)


def test_rollback_discards(client):
    before = _profile(client, "user4")[0]
    client.begin()
    assert client.execute(_set_profile("user4", 42)) == 1
    assert _profile(client, "user4")[0] == 42
    client.rollback()
    assert _profile(client, "user4")[0] == before
    session = _session(client)
    assert (session["rollbacks"], session["txn_open"]) == (1, False)


def test_transaction_control_out_of_order_is_a_txn_error(client):
    assert _code(client.commit) == "txn_error"
    assert _code(client.rollback) == "txn_error"
    client.begin()
    assert _code(client.begin) == "txn_error"
    assert _session(client)["txn_open"]  # the misuse did not cost the transaction
    client.rollback()


def test_losing_first_committer_wins_is_a_txn_conflict(client, other):
    client.begin()
    other.begin()
    assert client.execute(_set_profile("user5", 7)) == 1
    assert other.execute(_set_profile("user5", 8)) == 1
    other.commit()
    with pytest.raises(RemoteTxnConflictError) as excinfo:
        client.commit()
    assert excinfo.value.code == "txn_conflict"
    session = _session(client)
    assert (session["conflicts"], session["commits"]) == (1, 0)
    assert not session["txn_open"]  # the loser is already rolled back
    assert _profile(client, "user5")[0] == 8


def test_disconnect_mid_transaction_releases_its_snapshot(front, client):
    before = _profile(client, "user8")[0]
    abandoned = _connect(front)
    abandoned.begin()
    assert abandoned.execute(_set_profile("user8", 43)) == 1
    assert client.stats()["catalog"]["active_snapshots"] >= 1
    abandoned.close()  # no bye, no rollback
    _wait_for(
        lambda: client.stats()["catalog"]["active_snapshots"] == 0,
        "the abandoned transaction still pins a snapshot",
    )
    assert _profile(client, "user8")[0] == before
