"""Wire protocol: framing, limits and exception → error-code mapping."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro.errors import (
    EngineError,
    PolicyError,
    ServerBusyError,
    SqlError,
    UnauthorizedPurposeError,
    WireProtocolError,
)
from repro.server.protocol import (
    DENIAL_CODES,
    E_BUSY,
    E_ENGINE,
    E_INTERNAL,
    E_PARSE,
    E_POLICY,
    E_UNAUTHORIZED,
    MAX_FRAME,
    error_code_for,
    error_response,
    _encode,
    ok_response,
    recv_message,
    result_to_wire,
    rows_from_wire,
    send_message,
)
from repro.engine.result import ResultSet
from repro.engine.types import BitString


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_round_trip(self, pair):
        left, right = pair
        message = {"op": "query", "sql": "select 1", "note": "héllo ünïcode"}
        send_message(left, message)
        assert recv_message(right) == message

    def test_multiple_frames_in_order(self, pair):
        left, right = pair
        for index in range(5):
            send_message(left, {"index": index})
        for index in range(5):
            assert recv_message(right) == {"index": index}

    def test_clean_eof_returns_none(self, pair):
        left, right = pair
        left.close()
        assert recv_message(right) is None

    def test_eof_mid_frame_raises(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", 100) + b"partial")
        left.close()
        with pytest.raises(WireProtocolError):
            recv_message(right)

    def test_oversized_frame_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(WireProtocolError):
            recv_message(right)

    def test_non_object_payload_rejected(self, pair):
        left, right = pair
        payload = b"[1, 2, 3]"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(WireProtocolError):
            recv_message(right)

    def test_large_frame_within_limit(self, pair):
        left, right = pair
        message = {"blob": "x" * 100_000}
        writer = threading.Thread(target=send_message, args=(left, message))
        writer.start()
        received = recv_message(right)
        writer.join()
        assert received == message


class TestErrorCodes:
    @pytest.mark.parametrize(
        ("exc", "code"),
        [
            (UnauthorizedPurposeError("user", "p6"), E_UNAUTHORIZED),
            (PolicyError("nope"), E_POLICY),
            (SqlError("bad syntax"), E_PARSE),
            (EngineError("no such table"), E_ENGINE),
            (ServerBusyError("queue full"), E_BUSY),
            (ValueError("anything else"), E_INTERNAL),
        ],
    )
    def test_mapping(self, exc, code):
        assert error_code_for(exc) == code

    def test_denial_codes_cover_policy_outcomes(self):
        assert DENIAL_CODES == {E_UNAUTHORIZED, E_POLICY}

    def test_response_shapes(self):
        ok = ok_response(rows=[])
        assert ok["ok"] is True and ok["rows"] == []
        error = error_response(E_PARSE, "bad")
        assert error["ok"] is False
        assert error["error"] == {"code": E_PARSE, "message": "bad"}


def test_rows_from_wire_restores_tuples():
    payload = {"columns": ["a", "b"], "rows": [[1, "x"], [2, "y"]]}
    assert rows_from_wire(payload) == [(1, "x"), (2, "y")]


def test_result_rows_encode_as_the_list_of_lists_would():
    rows = [(1.5, None, BitString.from_bits("1010")), (-0.0, "x", None), (2, 1e300, "")]
    result = ResultSet(["a", "b", "c"], rows)
    as_lists = {"columns": ["a", "b", "c"], "rows": [list(row) for row in rows]}
    assert _encode(ok_response(result=result_to_wire(result))) == _encode(
        ok_response(result=as_lists)
    )
