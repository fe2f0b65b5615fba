"""Concurrent enforced-query service (DESIGN.md §8).

The paper's monitor is evaluated one query at a time on one connection; this
package is the subsystem that serves the same enforcement pipeline to many
clients at once:

* :mod:`repro.server.core` — the one sans-IO implementation of the wire
  protocol above the framing (verbs, session and transaction state machine,
  error codes, admission accounting, response shapes, ``stats``);
* :class:`QueryServer` — its threaded transport: a thread per connection
  in front of one monitor, snapshot-handoff reads; writers are ordered by
  the engine's write fence, not by the server;
* :class:`AsyncQueryServer` — its asyncio transport over a hash-sharded
  deployment (:mod:`repro.shard`, DESIGN.md §14): one event loop,
  scatter-gather execution behind the coordinator's fence;
* :class:`SessionManager` / :class:`ServerSession` — per-connection
  authenticated state (user, purpose, open prepared statements);
* :class:`Client` — the matching synchronous client.

``python -m repro.server --port 7878`` serves the patients scenario
(add ``--async --shards 3`` for the sharded event-loop server).
"""

from .async_server import AsyncQueryServer
from .client import Client, QueryResult
from .protocol import (
    DENIAL_CODES,
    E_BUSY,
    E_ENGINE,
    E_INTERNAL,
    E_NO_SESSION,
    E_PARSE,
    E_POLICY,
    E_PROTOCOL,
    E_UNAUTHORIZED,
    MAX_FRAME,
    error_code_for,
    recv_message,
    recv_message_async,
    send_message,
    send_message_async,
)
from .server import QueryServer
from .sessions import ServerSession, SessionManager

__all__ = [
    "AsyncQueryServer",
    "Client",
    "QueryResult",
    "QueryServer",
    "ServerSession",
    "SessionManager",
    "DENIAL_CODES",
    "E_BUSY",
    "E_ENGINE",
    "E_INTERNAL",
    "E_NO_SESSION",
    "E_PARSE",
    "E_POLICY",
    "E_PROTOCOL",
    "E_UNAUTHORIZED",
    "MAX_FRAME",
    "error_code_for",
    "recv_message",
    "recv_message_async",
    "send_message",
    "send_message_async",
]
