"""Wire protocol: length-prefixed JSON frames and the error-code mapping.

One message is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  Requests are objects with an ``op`` field (the verb)
plus verb-specific arguments; responses carry ``ok: true`` with result
fields, or ``ok: false`` with an ``error: {code, message}`` object.

The error codes make enforcement outcomes *observable* rather than
exceptional: a policy denial (``unauthorized_purpose`` / ``policy_denied``)
is an expected answer a client can branch on, distinct from a malformed
query (``parse_error``), an engine fault (``engine_error``), overload
backpressure (``server_busy``) or a protocol violation (``protocol_error``).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

from ..engine import ResultSet
from ..errors import (
    AccessControlError,
    CatalogConflictError,
    EngineError,
    ServerBusyError,
    SqlError,
    TransactionError,
    UnauthorizedPurposeError,
    WireProtocolError,
    WriteConflictError,
)

#: Frame header: one big-endian u32 payload length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload, to keep a misbehaving (or
#: misframed) peer from making the server buffer arbitrary amounts.
MAX_FRAME = 8 * 1024 * 1024

# -- error codes ---------------------------------------------------------------

E_UNAUTHORIZED = "unauthorized_purpose"
E_POLICY = "policy_denied"
E_PARSE = "parse_error"
E_ENGINE = "engine_error"
E_BUSY = "server_busy"
E_PROTOCOL = "protocol_error"
E_NO_SESSION = "no_session"
E_INTERNAL = "internal_error"
E_TXN_CONFLICT = "txn_conflict"
E_CATALOG_CONFLICT = "catalog_conflict"
E_TXN = "txn_error"

#: Codes a client should treat as an enforcement decision, not a fault.
DENIAL_CODES = frozenset({E_UNAUTHORIZED, E_POLICY})


def error_code_for(exc: BaseException) -> str:
    """Map an exception from the enforcement stack to a protocol code.

    Order matters: :class:`UnauthorizedPurposeError` is an
    :class:`AccessControlError`, and :class:`SqlError` / :class:`EngineError`
    are siblings under :class:`ReproError`.
    """
    if isinstance(exc, UnauthorizedPurposeError):
        return E_UNAUTHORIZED
    if isinstance(exc, AccessControlError):
        return E_POLICY
    if isinstance(exc, SqlError):
        return E_PARSE
    if isinstance(exc, CatalogConflictError):
        return E_CATALOG_CONFLICT
    if isinstance(exc, WriteConflictError):
        return E_TXN_CONFLICT
    if isinstance(exc, TransactionError):
        return E_TXN
    if isinstance(exc, EngineError):
        return E_ENGINE
    if isinstance(exc, ServerBusyError):
        return E_BUSY
    return E_INTERNAL


def ok_response(**fields: object) -> dict:
    """A success response frame."""
    return {"ok": True, **fields}


def error_response(code: str, message: str) -> dict:
    """An error response frame."""
    return {"ok": False, "error": {"code": code, "message": message}}


def result_to_wire(result: ResultSet) -> dict:
    """Serialize a result set (columns + row tuples) for the wire.

    The rows go as the tuples they are: ``json`` encodes a tuple as the
    array a list would be, so no row is copied."""
    return {"columns": list(result.columns), "rows": list(result.rows)}


def rows_from_wire(payload: dict) -> list[tuple]:
    """The inverse of :func:`result_to_wire`'s row encoding."""
    return [tuple(row) for row in payload["rows"]]


def _jsonable(value: object) -> str:
    # BitString policy masks (and anything else non-JSON) degrade to text;
    # the protocol is for query results, not for round-tripping masks.
    return str(value)


def _encode(payload: dict) -> bytes:
    """One frame — header and payload — ready to write."""
    data = json.dumps(payload, separators=(",", ":"), default=_jsonable).encode(
        "utf-8"
    )
    if len(data) > MAX_FRAME:
        raise WireProtocolError(
            f"outgoing frame of {len(data)} bytes exceeds MAX_FRAME"
        )
    return HEADER.pack(len(data)) + data


def _payload_length(header: bytes) -> int:
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireProtocolError(f"incoming frame of {length} bytes exceeds MAX_FRAME")
    return length


def _decode(data: bytes) -> dict:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise WireProtocolError(
            f"expected a JSON object frame, got {type(payload).__name__}"
        )
    return payload


def send_message(sock: socket.socket, payload: dict) -> None:
    """Frame and send one message."""
    sock.sendall(_encode(payload))


def recv_message(sock: socket.socket) -> dict | None:
    """Receive one message; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exactly(sock, HEADER.size, allow_eof=True)
    if header is None:
        return None
    return _decode(_recv_exactly(sock, _payload_length(header), allow_eof=False))


async def send_message_async(writer, payload: dict) -> None:
    """:func:`send_message` for an :class:`asyncio.StreamWriter`."""
    writer.write(_encode(payload))
    await writer.drain()


async def recv_message_async(reader) -> dict | None:
    """:func:`recv_message` for an :class:`asyncio.StreamReader`."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise WireProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{HEADER.size} bytes)"
        ) from None
    length = _payload_length(header)
    try:
        return _decode(await reader.readexactly(length))
    except asyncio.IncompleteReadError as exc:
        raise WireProtocolError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None


def _recv_exactly(
    sock: socket.socket, count: int, allow_eof: bool
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if allow_eof and remaining == count:
                return None
            raise WireProtocolError(
                f"connection closed mid-frame ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
