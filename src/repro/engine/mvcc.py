"""Snapshot-isolation MVCC: snapshots, transactions, the commit clock.

This module gives the engine the concurrency model the ROADMAP asks for —
*policy writes never stall readers*.  The design in one paragraph:

* Every committed change to a table is stamped with a **commit timestamp**
  drawn from a single monotonic clock (:class:`TransactionManager`).
* A :class:`Snapshot` is the pair ``(commit ts, catalog version)``: which
  data versions are visible *and* which metadata state — schemas, index
  definitions, the purpose taxonomy — the query is planned and enforced
  under.  The catalog version (DESIGN.md §16) subsumes the old policy
  epoch: a reader that began before a policy update or a DDL commit keeps
  being enforced under its snapshot's metadata state.
* Tables keep per-tuple version chains (``xmin``/``xmax`` commit
  timestamps, :class:`TupleVersion` in :mod:`repro.engine.table`); a
  snapshot sees exactly the versions with ``xmin <= ts < xmax``.
* A :class:`Transaction` stages its writes in per-table overlays and
  validates **first-committer-wins** at commit.  Since PR 10 the conflict
  granularity is the *row*: each commit records the set of primary keys it
  wrote, and a transaction aborts with
  :class:`~repro.errors.WriteConflictError` only when its own write set
  intersects a concurrent commit's.  Disjoint-row writers to the same
  table rebase onto the latest committed rows and commit.  Tables without
  a primary key (and whole-schema changes) fall back to table granularity.
* DDL stages in the transaction's **catalog overlay**
  (:class:`~repro.engine.catalog.CatalogOp`) and conflicts
  first-committer-wins on the catalog entry
  (:class:`~repro.errors.CatalogConflictError`).

The active transaction travels in a :class:`contextvars.ContextVar`, so it
is inherited by the asyncio tasks of the sharded transport and can be
activated per statement by the server's request core via :func:`txn_scope` —
every existing read path (executor scans, columnar batches, index builds,
bitmap probes, statistics) becomes snapshot-consistent through the
``Table.rows`` / ``Table.version`` / ``Table.schema`` properties without
touching a single operator.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..errors import (
    CatalogConflictError,
    TransactionError,
    WriteConflictError,
)
from .catalog import Catalog, CatalogOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .schema import TableSchema
    from .table import Table

_MISSING = object()


@dataclass(frozen=True)
class Snapshot:
    """Snapshot identity: data visibility horizon × catalog version.

    ``ts`` is the highest commit timestamp visible to the snapshot;
    ``catalog_version`` is the metadata version — schemas, indexes, purpose
    taxonomy — the snapshot's queries are planned and enforced under (plan
    cache + ``compliesWith`` memo keying, DESIGN.md §16).
    """

    ts: int
    catalog_version: int


class _StagedTable:
    """A transaction's private overlay over one table.

    Created on the transaction's first write to the table by cloning the
    snapshot-visible rows; all further statements in the transaction read
    and write this list.  ``bump`` makes the staged ``Table.version``
    change on every staged write so version-keyed caches (bitmaps,
    indexes, statistics) never serve one staged state for another.
    ``base_rows`` keeps the snapshot-time rows for the commit-time
    write-set diff (which rows did this transaction actually change?).
    """

    __slots__ = ("rows", "base_rows", "bump", "append_only")

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        self.base_rows: list[tuple] = list(rows)
        self.bump = 0
        #: True while the overlay only ever appended rows; such a table
        #: commits as a cheap append (no version-chain closure, compact
        #: WAL record) instead of a full replace.
        self.append_only = True


class Transaction:
    """One snapshot-isolation transaction: a snapshot plus staged writes."""

    def __init__(self, manager: "TransactionManager", txn_id: int, snapshot: Snapshot):
        self.manager = manager
        self.txn_id = txn_id
        self.snapshot = snapshot
        self.status = "active"
        #: True for per-statement read snapshots (the server's snapshot
        #: handoff), False for explicit BEGIN transactions.  Observability
        #: only — EXPLAIN renders ephemeral snapshots as "latest".
        self.ephemeral = False
        self._staged: dict[str, _StagedTable] = {}
        #: Row count of each staged table at staging time, to split the
        #: append-only suffix out of the overlay at commit.
        self._staged_base: dict[str, int] = {}
        self._tables: dict[str, "Table"] = {}
        #: Staged catalog mutations (transactional DDL), in statement order.
        self._catalog_ops: list[CatalogOp] = []
        #: Schemas staged by ALTER TABLE, visible only to this transaction
        #: through the ``Table.schema`` property.
        self._staged_schemas: dict[str, "TableSchema"] = {}

    # -- staging -----------------------------------------------------------

    def staged(self, table: "Table") -> "_StagedTable | None":
        """The overlay for ``table`` if this transaction wrote it."""
        return self._staged.get(table.name.lower())

    def stage(self, table: "Table") -> _StagedTable:
        """Get-or-create the write overlay for ``table``."""
        key = table.name.lower()
        overlay = self._staged.get(key)
        if overlay is None:
            base = table.rows_as_of(self.snapshot.ts)
            overlay = _StagedTable(list(base))
            self._staged[key] = overlay
            self._staged_base[key] = len(overlay.rows)
            self._tables[key] = table
        return overlay

    def staged_schema(self, table: "Table") -> "TableSchema | None":
        """The schema staged by this transaction's ALTER TABLE, if any."""
        return self._staged_schemas.get(table.name.lower())

    def add_catalog_op(self, op: CatalogOp) -> None:
        """Stage a catalog mutation (transactional DDL)."""
        self._catalog_ops.append(op)

    def staged_catalog_value(self, kind: str, key: str) -> object:
        """The newest value this transaction staged for a catalog slot
        (``_MISSING`` sentinel is not used: returns ``None`` when absent,
        callers that need presence use :meth:`has_staged_catalog`)."""
        for op in reversed(self._catalog_ops):
            if op.kind == kind and op.key == key.lower():
                return op.value
        return None

    def has_staged_catalog(self, kind: str, key: str) -> bool:
        return any(
            op.kind == kind and op.key == key.lower()
            for op in self._catalog_ops
        )

    def written_tables(self) -> list[str]:
        """Lower-cased names of tables this transaction wrote."""
        return list(self._staged)

    def commit(self) -> int:
        """Commit via the owning manager; returns the commit timestamp."""
        return self.manager.commit(self)

    def rollback(self) -> None:
        """Abort: discard the staged overlays."""
        self.manager.rollback(self)


#: The transaction active in the current thread/task context, if any.
#: ``ContextVar`` (not a thread-local) so asyncio tasks inherit it.
_ACTIVE: ContextVar["Transaction | None"] = ContextVar("repro_txn", default=None)


def current_transaction(manager: "TransactionManager | None" = None) -> "Transaction | None":
    """The context's active transaction, filtered to ``manager`` if given.

    The manager filter keeps two databases in one process (e.g. the fuzz
    oracle next to the enforced world, or per-shard replicas) from seeing
    each other's transactions.
    """
    txn = _ACTIVE.get()
    if txn is None or txn.status != "active":
        return None
    if manager is not None and txn.manager is not manager:
        return None
    return txn


@contextlib.contextmanager
def txn_scope(txn: "Transaction | None") -> Iterator[None]:
    """Activate ``txn`` for the dynamic extent of the ``with`` block.

    ``txn_scope(None)`` masks any ambient transaction — the audit log uses
    it so audit rows are never staged (and hence never rolled back) with
    the transaction they record.
    """
    token = _ACTIVE.set(txn)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


@dataclass
class TxnStats:
    """Counters for the server stats verb."""

    begun: int = 0
    committed: int = 0
    rolled_back: int = 0
    conflicts: int = 0
    catalog_conflicts: int = 0
    rebased: int = 0
    active: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "begun": self.begun,
            "committed": self.committed,
            "rolled_back": self.rolled_back,
            "conflicts": self.conflicts,
            "catalog_conflicts": self.catalog_conflicts,
            "rebased": self.rebased,
            "active": self.active,
        }


class _WritePlan:
    """One staged table's validated commit effect."""

    __slots__ = ("table", "op", "rows", "written", "rebased")

    def __init__(self, table, op, rows, written, rebased=False):
        self.table = table
        self.op = op
        self.rows = rows
        self.written = written
        self.rebased = rebased


def _key_map(rows: list[tuple], pk: tuple[int, ...]) -> "dict | None":
    """Map primary key -> row; ``None`` when a duplicate key appears
    (the diff cannot attribute writes, so fall back to table granularity)."""
    mapping: dict = {}
    for row in rows:
        key = tuple(row[index] for index in pk)
        if key in mapping:
            return None
        mapping[key] = row
    return mapping


class TransactionManager:
    """The commit clock, the active-snapshot registry and commit validation.

    One manager per :class:`~repro.engine.database.Database`; standalone
    :class:`~repro.engine.table.Table` objects lazily create a private one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._clock = 0
        self._txn_counter = 0
        self._active: dict[int, Transaction] = {}
        self.stats = TxnStats()
        #: The owning database's versioned catalog; wired by
        #: :class:`~repro.engine.database.Database`.  ``None`` for
        #: standalone tables (catalog versions then stay 0).
        self.catalog: Catalog | None = None
        #: Durability hook (:class:`~repro.engine.wal.DurabilityManager`);
        #: ``None`` for purely in-memory databases.
        self.wal = None

    # -- clock -------------------------------------------------------------

    @property
    def clock(self) -> int:
        """The timestamp of the most recent commit."""
        return self._clock

    def advance_clock_to(self, ts: int) -> None:
        """Fast-forward the clock (WAL replay stamps recovered commits)."""
        with self._lock:
            if ts > self._clock:
                self._clock = ts

    def current_catalog_version(self) -> int:
        """The catalog version new snapshots pin (0 when detached)."""
        if self.catalog is not None:
            return self.catalog.version
        return 0

    # -- snapshot lifecycle ------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A snapshot of the present: latest commit ts × catalog version."""
        return Snapshot(
            ts=self._clock, catalog_version=self.current_catalog_version()
        )

    def begin(self) -> Transaction:
        """Open a transaction pinned to a fresh snapshot."""
        with self._lock:
            self._txn_counter += 1
            txn = Transaction(self, self._txn_counter, self.snapshot())
            self._active[txn.txn_id] = txn
            self.stats.begun += 1
            self.stats.active = len(self._active)
        return txn

    @contextlib.contextmanager
    def read_snapshot(self) -> Iterator["Transaction"]:
        """A registered read-only snapshot for the extent of a statement.

        This is the server's *snapshot handoff*: instead of holding the
        read side of the RW lock for the duration of a SELECT, the worker
        pins a snapshot (protecting its versions from pruning) and reads
        lock-free.  Exiting the scope unregisters without commit
        validation — a read-only transaction has nothing to validate.
        """
        txn = self.begin()
        txn.ephemeral = True
        try:
            with txn_scope(txn):
                yield txn
        finally:
            self.rollback(txn)

    def rollback(self, txn: Transaction) -> None:
        if txn.status != "active":
            return
        with self._lock:
            txn.status = "aborted"
            self._active.pop(txn.txn_id, None)
            self.stats.rolled_back += 1
            self.stats.active = len(self._active)
        self._prune_tables(txn)

    # -- commit ------------------------------------------------------------

    def next_commit_ts(self) -> int:
        """Allocate the next commit timestamp (autocommit writes)."""
        with self._lock:
            self._clock += 1
            return self._clock

    def commit_single(self, table: "Table", op: str, rows: list[tuple]) -> int:
        """Commit one autocommit statement's write to one table.

        Timestamp allocation, WAL logging and the in-memory apply happen
        under the manager lock so autocommit writes serialize with
        transactional commits and the apply order is the timestamp order.
        The commit's row-level write set is recorded so concurrent
        transactions validate against it at *their* commit.
        """
        lsn = None
        with self._lock:
            ts = self._clock + 1
            written = self._autocommit_write_set(table, op, rows)
            if self.wal is not None:
                lsn = self.wal.log_commit(ts, {table.name.lower(): (op, rows)})
            if op == "append":
                table.apply_committed_append(rows, ts, written=written)
            else:
                table.apply_committed_replace(rows, ts, written=written)
            self._clock = ts
            table.prune_versions(self._oldest_locked())
        if lsn is not None:
            # Fsync outside the lock: concurrent committers group-commit.
            self.wal.sync(lsn)
        return ts

    def _autocommit_write_set(
        self, table: "Table", op: str, rows: list[tuple]
    ) -> "frozenset | None":
        """The primary-key write set of an autocommit statement.

        ``None`` (= "all rows") for tables without a primary key and on
        duplicate keys.
        """
        pk = table.row_key_indexes()
        if not pk:
            return None
        if op == "append":
            return frozenset(
                tuple(row[index] for index in pk) for row in rows
            )
        base_map = _key_map(table.latest_rows(), pk)
        over_map = _key_map(rows, pk)
        if base_map is None or over_map is None:
            return None
        written = {
            key
            for key, row in over_map.items()
            if base_map.get(key, _MISSING) != row
        }
        written.update(key for key in base_map if key not in over_map)
        return frozenset(written)

    def commit_ddl(
        self,
        catalog_ops: list[CatalogOp],
        table_effects: "dict[str, tuple] | None" = None,
    ) -> int:
        """Commit an autocommit DDL statement: catalog entries + row effects.

        ``table_effects`` maps table key to ``(table, op, rows, written)``
        (e.g. the rewritten rows of an ALTER TABLE).  The whole statement
        lands at one commit timestamp: WAL DDL record, schema/index apply,
        row apply, catalog commit.
        """
        table_effects = table_effects or {}
        lsn = None
        with self._lock:
            ts = self._clock + 1
            if self.wal is not None:
                lsn = self.wal.log_ddl(
                    ts,
                    [op.wal for op in catalog_ops if op.wal is not None],
                    {
                        key: (op, rows)
                        for key, (_t, op, rows, _w) in table_effects.items()
                    },
                )
            for op in catalog_ops:
                if op.apply is not None:
                    op.apply(ts)
            for key, (table, op, rows, written) in table_effects.items():
                if op == "append":
                    table.apply_committed_append(rows, ts, written=written)
                else:
                    table.apply_committed_replace(rows, ts, written=written)
            self._clock = ts
            if self.catalog is not None:
                self.catalog.commit(
                    [(op.kind, op.key, op.value) for op in catalog_ops], ts
                )
        if lsn is not None:
            self.wal.sync(lsn)
        return ts

    def commit(self, txn: Transaction) -> int:
        """Validate first-committer-wins, log, apply; returns the commit ts.

        Validation, WAL append and in-memory apply happen under the
        manager lock, so the apply order *is* the timestamp order and a
        concurrent snapshot can never observe half a commit (a table's
        rows swap atomically per table; the clock only advances once every
        staged table has been applied).

        Validation is two-layered: staged catalog ops (DDL) conflict on
        their catalog entry; staged row writes conflict on intersecting
        primary-key write sets, or on any concurrent commit to the table
        when a write set is unknown (no primary key, duplicate keys, a
        schema change).  Disjoint-row writers to a concurrently-changed
        table *rebase*: their changes are replayed over the latest
        committed rows so the loser-free commit does not clobber the
        winner's rows.
        """
        if txn.status != "active":
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.status}, not active"
            )
        if not txn._staged and not txn._catalog_ops:
            # Read-only commit: nothing to validate or log.
            with self._lock:
                txn.status = "committed"
                self._active.pop(txn.txn_id, None)
                self.stats.committed += 1
                self.stats.active = len(self._active)
            self._prune_tables(txn)
            return self._clock
        with self._lock:
            try:
                self._validate_catalog_locked(txn)
                plans = self._validate_tables_locked(txn)
            except TransactionError:
                txn.status = "aborted"
                self._active.pop(txn.txn_id, None)
                self.stats.rolled_back += 1
                self.stats.active = len(self._active)
                self._prune_tables_locked(txn)
                raise
            ts = self._clock + 1
            ops = {key: (plan.op, plan.rows) for key, plan in plans.items()}
            lsn = None
            if self.wal is not None:
                if txn._catalog_ops:
                    lsn = self.wal.log_ddl(
                        ts,
                        [
                            op.wal
                            for op in txn._catalog_ops
                            if op.wal is not None
                        ],
                        ops,
                    )
                elif ops:
                    lsn = self.wal.log_commit(ts, ops)
            for op in txn._catalog_ops:
                if op.apply is not None:
                    op.apply(ts)
            for key, plan in plans.items():
                if plan.op == "append":
                    plan.table.apply_committed_append(
                        plan.rows, ts, written=plan.written
                    )
                else:
                    plan.table.apply_committed_replace(
                        plan.rows, ts, written=plan.written
                    )
                if plan.rebased:
                    self.stats.rebased += 1
            self._clock = ts
            if self.catalog is not None and txn._catalog_ops:
                self.catalog.commit(
                    [(op.kind, op.key, op.value) for op in txn._catalog_ops],
                    ts,
                )
            txn.status = "committed"
            self._active.pop(txn.txn_id, None)
            self.stats.committed += 1
            self.stats.active = len(self._active)
            self._prune_tables_locked(txn)
        if lsn is not None:
            # Fsync outside the lock: concurrent committers group-commit.
            self.wal.sync(lsn)
        return ts

    def _validate_catalog_locked(self, txn: Transaction) -> None:
        """First-committer-wins on catalog entries (DDL conflicts)."""
        for op in txn._catalog_ops:
            if self.catalog is not None:
                committed = self.catalog.last_commit_version(op.kind, op.key)
                if committed > txn.snapshot.catalog_version:
                    self.stats.catalog_conflicts += 1
                    self.stats.conflicts += 1
                    raise CatalogConflictError(
                        op.kind,
                        op.key,
                        txn.snapshot.catalog_version,
                        committed,
                    )
            if op.validate is not None:
                op.validate()

    def _validate_tables_locked(self, txn: Transaction) -> "dict[str, _WritePlan]":
        """Row-level first-committer-wins + rebase planning for staged DML."""
        plans: dict[str, _WritePlan] = {}
        for key, overlay in txn._staged.items():
            table = txn._tables[key]
            base = txn._staged_base[key]
            changed = table.last_commit_ts > txn.snapshot.ts
            pk = () if key in txn._staged_schemas else table.row_key_indexes()
            if overlay.append_only:
                rows = overlay.rows[base:]
                written = (
                    frozenset(
                        tuple(row[index] for index in pk) for row in rows
                    )
                    if pk
                    else None
                )
                if changed and not self._compatible_locked(table, txn, written):
                    raise self._conflict_locked(txn, table)
                plans[key] = _WritePlan(table, "append", rows, written)
                continue
            written, rebase = self._replace_plan(overlay, pk)
            if changed:
                if not self._compatible_locked(table, txn, written):
                    raise self._conflict_locked(txn, table)
                # Rebase: replay this transaction's changes over the
                # latest committed rows so the concurrent winner's
                # disjoint rows survive.
                updates, deletes, inserts, keyfn = rebase
                merged = []
                for row in table.latest_rows():
                    row_key = keyfn(row)
                    if row_key in deletes:
                        continue
                    merged.append(updates.get(row_key, row))
                merged.extend(inserts)
                plans[key] = _WritePlan(
                    table, "replace", merged, written, rebased=True
                )
            else:
                plans[key] = _WritePlan(
                    table, "replace", overlay.rows, written
                )
        return plans

    def _replace_plan(self, overlay: _StagedTable, pk: tuple[int, ...]):
        """The write set and rebase ingredients of a replace overlay."""
        if not pk:
            return None, None
        base_map = _key_map(overlay.base_rows, pk)
        over_map = _key_map(overlay.rows, pk)
        if base_map is None or over_map is None:
            return None, None

        def keyfn(row: tuple) -> tuple:
            return tuple(row[index] for index in pk)

        updates = {
            key: row
            for key, row in over_map.items()
            if key in base_map and base_map[key] != row
        }
        deletes = {key for key in base_map if key not in over_map}
        inserts = [
            row for row in overlay.rows if keyfn(row) not in base_map
        ]
        written = frozenset(
            set(updates) | deletes | {keyfn(row) for row in inserts}
        )
        return written, (updates, deletes, inserts, keyfn)

    def _compatible_locked(self, table: "Table", txn: Transaction, written) -> bool:
        """Whether a staged write commits over concurrent commits to its
        table: both write sets known, and disjoint."""
        if written is None:
            return False
        theirs = table.written_since(txn.snapshot.ts)
        if theirs is None:
            return False
        return not (written & theirs)

    def _conflict_locked(self, txn: Transaction, table: "Table") -> WriteConflictError:
        txn.status = "aborted"
        self._active.pop(txn.txn_id, None)
        self.stats.conflicts += 1
        self.stats.rolled_back += 1
        self.stats.active = len(self._active)
        error = WriteConflictError(
            table.name, txn.snapshot.ts, table.last_commit_ts
        )
        self._prune_tables_locked(txn)
        return error

    # -- snapshot horizon / version pruning --------------------------------

    def oldest_snapshot_ts(self) -> int:
        """The pruning horizon: versions dead before this ts are garbage."""
        with self._lock:
            return self._oldest_locked()

    def _oldest_locked(self) -> int:
        if not self._active:
            return self._clock
        return min(
            (t.snapshot.ts for t in self._active.values()), default=self._clock
        )

    def pinned_catalog_versions(self) -> set[int]:
        """Catalog versions still pinned by an active snapshot.

        The enforcement monitor's plan-cache purge keeps entries for these
        versions so a pinned reader's plans survive concurrent policy
        churn and DDL.
        """
        with self._lock:
            return {t.snapshot.catalog_version for t in self._active.values()}

    def _prune_tables(self, txn: Transaction) -> None:
        with self._lock:
            self._prune_tables_locked(txn)

    def _prune_tables_locked(self, txn: Transaction) -> None:
        horizon = self._oldest_locked()
        for table in txn._tables.values():
            table.prune_versions(horizon)
        if self.catalog is not None:
            if self._active:
                pinned = min(
                    t.snapshot.catalog_version for t in self._active.values()
                )
            else:
                pinned = self.catalog.version
            self.catalog.prune(pinned)

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def stats_dict(self) -> dict[str, int]:
        with self._lock:
            self.stats.active = len(self._active)
            return self.stats.as_dict()
