"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The hierarchy mirrors the subsystems: the SQL
front end raises :class:`SqlError` subclasses, the relational engine raises
:class:`EngineError` subclasses, and the access-control core raises
:class:`AccessControlError` subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


# --------------------------------------------------------------------------
# SQL front end
# --------------------------------------------------------------------------


class SqlError(ReproError):
    """Base class for lexing/parsing failures."""


class LexError(SqlError):
    """Raised when the lexer meets a character sequence it cannot tokenize."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the token stream does not form a valid statement."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


# --------------------------------------------------------------------------
# Relational engine
# --------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for execution-time failures of the relational engine."""


class CatalogError(EngineError):
    """Unknown or duplicate table/column/function, or invalid DDL."""


class AmbiguousColumnError(CatalogError):
    """An unqualified column reference matches more than one source.

    Distinct from the unknown-column case: scope resolution must *not* fall
    back to an enclosing query block when the inner block's reference is
    ambiguous.
    """


class TypeMismatchError(EngineError):
    """An operator or function was applied to operands of the wrong type."""


class ExpressionError(EngineError):
    """An expression cannot be compiled or evaluated (bad column ref, ...)."""


class ExecutionError(EngineError):
    """A query plan failed during execution."""


class TransactionError(EngineError):
    """Transaction protocol misuse (nested BEGIN, COMMIT without BEGIN, ...)."""


class WriteConflictError(TransactionError):
    """First-committer-wins validation failed: another transaction committed
    a write to a table this transaction also wrote since its snapshot."""

    def __init__(self, table: str, snapshot_ts: int, committed_ts: int):
        super().__init__(
            f"write-write conflict on table {table!r}: snapshot ts "
            f"{snapshot_ts} but a conflicting commit landed at ts {committed_ts}"
        )
        self.table = table
        self.snapshot_ts = snapshot_ts
        self.committed_ts = committed_ts


class CatalogConflictError(TransactionError):
    """First-committer-wins validation failed on a *catalog* entry: another
    transaction (or an autocommit DDL statement) committed a change to the
    same schema/index/taxonomy slot since this transaction's snapshot."""

    def __init__(
        self, kind: str, key: str, snapshot_version: int, committed_version: int
    ):
        super().__init__(
            f"catalog conflict on {kind} {key!r}: snapshot pinned catalog "
            f"version {snapshot_version} but a conflicting commit landed at "
            f"version {committed_version}"
        )
        self.kind = kind
        self.key = key
        self.snapshot_version = snapshot_version
        self.committed_version = committed_version


class WalError(EngineError):
    """The write-ahead log is unreadable, unwritable or corrupt."""


class InjectedFailure(RuntimeError):
    """Raised by a WAL failpoint to simulate a crash mid-commit.

    Deliberately *not* a :class:`ReproError`: production code must never
    catch it, exactly like a real ``kill -9`` cannot be caught.
    """

    def __init__(self, point: str):
        super().__init__(f"injected crash at failpoint {point!r}")
        self.point = point


# --------------------------------------------------------------------------
# Access-control core
# --------------------------------------------------------------------------


class AccessControlError(ReproError):
    """Base class for policy/enforcement configuration failures."""


class PolicyError(AccessControlError):
    """A policy or rule is malformed with respect to its table/purpose set."""


class MaskError(AccessControlError):
    """A bit-mask operation received incompatible operands."""


class SignatureError(AccessControlError):
    """Query-signature derivation failed for a statement."""


class ConfigurationError(AccessControlError):
    """The target database is not (or is inconsistently) configured."""


class UnauthorizedPurposeError(AccessControlError):
    """A user submitted a query for a purpose they are not authorized for."""

    def __init__(self, user_id: str, purpose_id: str):
        super().__init__(
            f"user {user_id!r} is not authorized for purpose {purpose_id!r}"
        )
        self.user_id = user_id
        self.purpose_id = purpose_id


# --------------------------------------------------------------------------
# Query service (repro.server)
# --------------------------------------------------------------------------


class ServerError(ReproError):
    """Base class for failures of the concurrent query service."""


class WireProtocolError(ServerError):
    """A frame on the wire is malformed, oversized or truncated."""


class ServerBusyError(ServerError):
    """Admission control rejected the request: the work queue is full."""


class RemoteError(ServerError):
    """An error response received by a client, carrying the server's code.

    ``code`` is one of the protocol's error codes (``policy_denied``,
    ``unauthorized_purpose``, ``parse_error``, ``engine_error``,
    ``server_busy``, ``protocol_error``, ``internal_error``), so client code
    can tell a policy denial from an engine fault without string matching.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class RemoteTxnConflictError(RemoteError):
    """Typed ``txn_conflict``: the server aborted this session's COMMIT
    because another transaction won the first-committer-wins race on a row
    (or, for a table without a primary key, the table) this transaction
    wrote."""


class RemoteCatalogConflictError(RemoteError):
    """Typed ``catalog_conflict``: a concurrent DDL/taxonomy commit beat
    this transaction to the same catalog entry."""
