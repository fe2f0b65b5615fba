"""Snapshot-isolation MVCC: snapshots, transactions and the commit path.

The engine's concurrency model — *policy writes never stall readers* —
and its one write path (DESIGN.md §15):

* A :class:`Snapshot` is the pair ``(commit ts, catalog version)``: which
  row list each table shows it (the one the latest commit at or before
  ts left, :meth:`~repro.engine.table.Table.rows_as_of`) *and* which
  schemas, index definitions and purpose taxonomy the query is planned
  and enforced under.  Every commit prunes the history of the tables it
  wrote to the lists the active snapshots pin.
* **Stage.**  A :class:`Transaction` writes per-table overlays and stages
  DDL as :class:`~repro.engine.catalog.CatalogOp` entries.  Outside
  ``BEGIN`` a DDL statement is its own transaction
  (:meth:`TransactionManager.statement_transaction`); an autocommit DML
  statement builds none (:meth:`TransactionManager.commit_single`).
* **Validate** first-committer-wins: a catalog op conflicts on its catalog
  entry (:class:`~repro.errors.CatalogConflictError`), a row write on the
  primary keys of the rows it changed (:func:`row_delta`, by tuple
  identity; :class:`~repro.errors.WriteConflictError`).  A disjoint-row
  writer to a table that changed since its snapshot *rebases* onto the
  latest rows by key.  Tables without a primary key, duplicate keys and
  schema changes conflict as a whole.
* **Log, apply, flush** in one body, :meth:`TransactionManager
  ._commit_locked`, under the manager lock: the next timestamp, one WAL
  record (:meth:`~repro.engine.wal.DurabilityManager.log_commit`), the one
  applier (:meth:`~repro.engine.database.Database.apply_commit`, which
  recovery replays the record through), the clock, pruning, the fsync.  A
  snapshot is pinned under that lock, so *visible means durable* — but
  for a ``durable=False`` commit (an audit row), which the next fsync covers.
* **Order writers** with one re-entrant fence
  (:meth:`TransactionManager.exclusive`): every commit and every snapshot
  pin takes it before the manager lock, and an autocommit statement that
  reads before it writes holds it from the read to the commit, so no
  concurrent commit lands in between and is overwritten.

The active transaction travels in a :class:`contextvars.ContextVar`, so it
is inherited by the asyncio tasks of the sharded transport and can be
activated per statement by the server's request core via :func:`txn_scope` —
every read path (executor scans, columnar batches, index builds, bitmap
probes) is snapshot-consistent through the ``Table.rows`` /
``Table.schema`` properties without touching a single operator.
"""

from __future__ import annotations

import contextlib
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import compress
from operator import is_not, itemgetter
from typing import TYPE_CHECKING, Iterator

from ..errors import (
    CatalogConflictError,
    ReproError,
    TransactionError,
    WriteConflictError,
)
from .catalog import Catalog, CatalogOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .schema import TableSchema
    from .table import Table


@dataclass(frozen=True)
class Snapshot:
    """Snapshot identity: data visibility horizon × catalog version.

    ``ts`` is the highest commit timestamp visible to the snapshot;
    ``catalog_version`` is the metadata version — schemas, indexes, purpose
    taxonomy — the snapshot's queries are planned and enforced under (plan
    cache + ``compliesWith`` memo keying, DESIGN.md §15).
    """

    ts: int
    catalog_version: int


class _StagedTable:
    """A transaction's private overlay over one table.

    Created on the transaction's first write to the table by cloning the
    snapshot-visible rows; all further statements in the transaction read
    this list, append to it or replace it with a new one — so, as for a
    committed list, (list, length) names one staged state and caches
    derived from the rows never serve one staged state for another.
    ``base_rows`` keeps the snapshot-time rows: the commit diffs the overlay
    against them by object identity (:func:`row_delta`) to find the rows
    this transaction actually changed.
    """

    __slots__ = ("rows", "base_rows", "append_only")

    def __init__(self, rows: list[tuple]):
        self.rows = rows
        self.base_rows: list[tuple] = list(rows)
        #: True while the overlay only ever appended rows; such a table
        #: commits its suffix as an append without diffing.
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
        self._tables: dict[str, "Table"] = {}
        #: Tables whose committed rows this snapshot read (see ``Table.rows``).
        self._read: set["Table"] = set()
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
            self._read.add(table)  # as in Table.rows: no append extends base mid-copy
            base = table.rows_as_of(self.snapshot.ts)
            overlay = _StagedTable(list(base))
            self._staged[key] = overlay
            self._tables[key] = table
        return overlay

    def staged_schema(self, table: "Table") -> "TableSchema | None":
        """The schema staged by this transaction's ALTER TABLE, if any."""
        return self._staged_schemas.get(table.name.lower())

    def add_catalog_op(self, op: CatalogOp) -> None:
        """Stage a catalog mutation (transactional DDL)."""
        self._catalog_ops.append(op)

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


class WritePlan:
    """One table's commit effect.

    ``op``/``payload`` is the effect as the WAL logs it and the table
    applies it: ``"append"`` (rows), ``"delta"`` (a :func:`row_delta`
    triple, positions in the latest committed rows) or ``"replace"`` (the
    whole new row list).  ``written`` is the primary-key write set, or
    ``None`` for "every row" (and for a replayed effect).
    """

    __slots__ = ("table", "op", "payload", "written", "rebased")

    def __init__(self, table, op, payload, written, rebased=False):
        self.table = table
        self.op = op
        self.payload = payload
        self.written = written
        self.rebased = rebased


def row_delta(
    old: list[tuple], new: list[tuple]
) -> "tuple[list[tuple[int, tuple]], list[int], list[tuple]]":
    """``(updates, deletes, inserts)`` turning ``old`` into ``new``.

    ``updates`` pairs a position in ``old`` with the row replacing it,
    ``deletes`` lists positions in ``old`` (both ascending), ``inserts`` are
    the rows appended after the survivors.  Rows are matched by *object
    identity*: ``update_rows``/``delete_rows`` keep every untouched tuple
    the same object in the same order, so a tuple that is not the one at its
    position was written.  Applying the delta to ``old`` always yields
    ``new`` exactly, whatever produced ``new``; a list that reorders rows
    merely degrades to deletes plus inserts.
    """
    size = len(old)
    if len(new) >= size:
        # The positions holding another tuple object (a C-speed pass).
        changed = list(compress(range(size), map(is_not, old, new)))
        gone = {id(old[position]) for position in changed}
        if not any(id(new[position]) in gone for position in changed):
            # No row merely moved: in-place updates plus an appended tail.
            return [(p, new[p]) for p in changed], [], new[size:]
    # Rows were deleted: walk both lists from the first difference.  A new
    # row that is one of the old tuples means the old row before it is gone;
    # any other new row replaces the old row at its place.
    start = next(compress(range(size), map(is_not, old, new)), min(size, len(new)))
    old_ids = set(map(id, old))
    updates: list[tuple[int, tuple]] = []
    deletes: list[int] = []
    position, cursor, end = start, start, len(new)
    while position < size:
        if cursor == end:
            deletes.extend(range(position, size))
            break
        row = new[cursor]
        if row is old[position]:
            cursor += 1
        elif id(row) in old_ids:
            deletes.append(position)
        else:
            updates.append((position, row))
            cursor += 1
        position += 1
    return updates, deletes, new[cursor:]


def _pk_tuples(rows, pk: tuple[int, ...]):
    """The primary-key tuple of each of ``rows``, in order, at C speed
    (``itemgetter`` gives a one-column key as a scalar: ``zip`` wraps it).
    Every write-set key comes from here."""
    key = itemgetter(*pk)
    return zip(map(key, rows)) if len(pk) == 1 else map(key, rows)


def _keys(rows, pk: tuple[int, ...]) -> "frozenset | None":
    """The primary keys of ``rows``; ``None`` — "every row" — for a table
    without a primary key."""
    if not pk:
        return None
    return frozenset(_pk_tuples(rows, pk))


def _written_keys(old: list[tuple], delta, pk: tuple[int, ...]) -> "frozenset | None":
    """The primary keys a delta over ``old`` writes: the old key of every
    updated or deleted row and the new key of every updated or inserted one
    (both sides, so assigning a key column conflicts on either value)."""
    updates, deletes, inserts = delta
    rows = [old[position] for position, _ in updates]
    rows.extend(old[position] for position in deletes)
    rows.extend(row for _, row in updates)
    rows.extend(inserts)
    return _keys(rows, pk)


def _plan_write(table, old: list[tuple], new: list[tuple], pk) -> WritePlan:
    """The cheapest effect turning ``old`` — the latest committed rows —
    into ``new``: an append when no existing row is touched, the whole list
    when every one is (TRUNCATE, ALTER TABLE, an assignment to all rows),
    the delta otherwise."""
    delta = updates, deletes, inserts = row_delta(old, new)
    written = _written_keys(old, delta, pk)
    touched = len(updates) + len(deletes)
    if not touched:
        return WritePlan(table, "append", inserts, written)
    if touched >= len(old):
        return WritePlan(table, "replace", new, written)
    return WritePlan(table, "delta", delta, written)


def _rebase(delta, base: list[tuple], latest: list[tuple], pk: tuple[int, ...]):
    """Re-address a delta over ``base`` to positions in ``latest``, by key.

    Only for write sets disjoint from every commit since ``base`` was read:
    the rows the delta touches are then unchanged in ``latest`` and found
    there under their (unique) primary key.
    """
    updates, deletes, inserts = delta
    replaced = dict(zip(
        _pk_tuples([base[position] for position, _ in updates], pk),
        [row for _, row in updates],
    ))
    removed = set(_pk_tuples([base[position] for position in deletes], pk))
    moved_updates, moved_deletes = [], []
    for position, key in enumerate(_pk_tuples(latest, pk)):
        if key in removed:
            moved_deletes.append(position)
        elif key in replaced:
            moved_updates.append((position, replaced[key]))
    return moved_updates, moved_deletes, inserts


def _unique_keys(rows: list[tuple], pk: tuple[int, ...]) -> bool:
    """Whether no two rows share a primary key (a rebase addresses rows by
    key, so a duplicate makes it ambiguous)."""
    return len(_keys(rows, pk)) == len(rows)


class TransactionManager:
    """The commit clock, the active-snapshot registry and the commit path.

    One manager per :class:`~repro.engine.database.Database` (a standalone
    :class:`~repro.engine.table.Table` joins a private one).
    """

    def __init__(self):
        #: The write fence (:meth:`exclusive`); lock order is fence →
        #: ``_lock``, and nothing takes the fence while holding ``_lock``.
        self._fence = threading.RLock()
        self._lock = threading.Lock()
        self._clock = 0
        self._txn_counter = 0
        self._active: dict[int, Transaction] = {}
        self.stats = TxnStats()
        #: The owning :class:`~repro.engine.database.Database`, wired by it:
        #: its catalog is what snapshots pin, and its ``apply_commit`` is
        #: the one applier every commit goes through.
        self.database = None
        #: Durability hook (:class:`~repro.engine.wal.DurabilityManager`);
        #: ``None`` for purely in-memory databases.
        self.wal = None

    @property
    def catalog(self) -> "Catalog | None":
        """The owning database's versioned catalog (``None`` when detached:
        catalog versions then stay 0)."""
        return None if self.database is None else self.database.catalog

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

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[int]:
        """Hold the write fence; yields the clock.

        No commit lands and no snapshot is pinned inside the block, so the
        tables are exactly the state every commit up to the yielded
        timestamp produced — what a checkpoint captures before it discards
        the log, what an autocommit read-modify-write commits over, and
        what an admin batch (policy rewrite plus epoch bump) needs to
        appear to readers as one step.  The fence is re-entrant: the
        holder's own commits and snapshots go through.  Rollbacks do not
        take it.
        """
        with self._fence:
            yield self._clock

    def autocommit_exclusive(self):
        """:meth:`exclusive` for a statement outside any transaction of this
        manager; nothing inside one, where first-committer-wins decides at
        COMMIT."""
        if current_transaction(self) is not None:
            return contextlib.nullcontext()
        return self.exclusive()

    def current_catalog_version(self) -> int:
        """The catalog version new snapshots pin (0 when detached)."""
        if self.catalog is not None:
            return self.catalog.version
        return 0

    def visible_catalog_version(self) -> int:
        """The catalog version metadata reads resolve at: the ambient
        transaction's pinned version, or the latest outside one.

        The one rule for which schemas, index definitions and taxonomy a
        reader sees, and the epoch its plans are cached under.
        """
        txn = current_transaction(self)
        if txn is not None:
            return txn.snapshot.catalog_version
        return self.current_catalog_version()

    # -- snapshot lifecycle ------------------------------------------------

    def snapshot(self) -> Snapshot:
        """A snapshot of the present: latest commit ts × catalog version."""
        return Snapshot(
            ts=self._clock, catalog_version=self.current_catalog_version()
        )

    def begin(self) -> Transaction:
        """Open a transaction pinned to a fresh snapshot."""
        with self._fence, self._lock:
            self._txn_counter += 1
            txn = Transaction(self, self._txn_counter, self.snapshot())
            self._active[txn.txn_id] = txn
            self.stats.begun += 1
            self.stats.active = len(self._active)
        return txn

    @contextlib.contextmanager
    def read_snapshot(self) -> Iterator["Transaction"]:
        """A registered read-only snapshot for the extent of a statement.

        This is the server's *snapshot handoff*: the worker holds the
        fence only while it pins a snapshot (protecting its row lists from
        pruning), then reads lock-free.  Exiting the scope unregisters
        without commit validation — a read-only transaction has nothing to
        validate.
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
            self._end_locked(txn, "aborted")

    @contextlib.contextmanager
    def statement_transaction(self) -> Iterator[Transaction]:
        """The context's transaction, or one that commits when the block
        exits: DDL stages through this, so an autocommit CREATE INDEX or
        ALTER TABLE commits exactly like one inside BEGIN … COMMIT."""
        txn = current_transaction(self)
        if txn is not None:
            yield txn
            return
        txn = self.begin()
        try:
            with txn_scope(txn):
                yield txn
        except BaseException:
            self.rollback(txn)
            raise
        self.commit(txn)

    # -- commit ------------------------------------------------------------

    def commit_single(self, table: "Table", op: str, rows: list[tuple], durable=True) -> int:
        """Commit one autocommit statement's write to one table.

        ``op`` is ``"append"`` (``rows`` are the new rows) or ``"replace"``
        (``rows`` is the statement's whole result list, diffed here against
        the latest committed rows).  No :class:`Transaction` is built: every
        audited read autocommits an append, so this stays the plan plus
        :meth:`_commit_locked`.  The commit's row-level write set is recorded
        so concurrent transactions validate against it at *their* commit.
        A ``"replace"`` that read ``rows`` before the call is only safe
        under :meth:`exclusive`, which ``Database.execute`` holds for
        autocommit DML.  ``durable`` as for :meth:`_commit_locked`.
        """
        with self._fence, self._lock:
            pk = table.row_key_indexes()
            if op == "append":
                plan = WritePlan(table, "append", rows, _keys(rows, pk))
            else:
                plan = _plan_write(table, table.latest_rows(), rows, pk)
            return self._commit_locked([plan], durable=durable)

    def commit(self, txn: Transaction) -> int:
        """Validate first-committer-wins, then commit; returns the commit ts.

        Validation is two-layered: staged catalog ops (DDL) conflict on
        their catalog entry; staged row writes conflict on intersecting
        primary-key write sets, or on any concurrent commit to the table
        when a write set is unknown (no primary key, a schema change).
        Disjoint-row writers to a concurrently-changed table *rebase*:
        their delta is re-addressed to the latest committed rows so the
        loser-free commit does not clobber the winner's rows.  A commit that
        fails validation is rolled back and never reaches the log.
        """
        if txn.status != "active":
            raise TransactionError(
                f"transaction {txn.txn_id} is {txn.status}, not active"
            )
        with self._fence, self._lock:
            if not txn._staged and not txn._catalog_ops:
                # Read-only commit: nothing to validate or log.
                self._end_locked(txn, "committed")
                return self._clock
            try:
                self._validate_catalog_locked(txn)
                plans = self._validate_tables_locked(txn)
            except ReproError:
                self._end_locked(txn, "aborted")
                raise
            self.stats.rebased += sum(plan.rebased for plan in plans)
            return self._commit_locked(
                plans, [op.ddl for op in txn._catalog_ops], txn
            )

    def _commit_locked(
        self,
        plans: "list[WritePlan]",
        ddl: "list[dict]" = (),
        txn: "Transaction | None" = None,
        durable: bool = True,
    ) -> int:
        """The one commit body, under the manager lock: take the next
        timestamp, log, apply, advance the clock, prune, flush.

        Autocommit writes and transactions alike, so the apply order *is*
        the timestamp order, a concurrent snapshot never observes half a
        commit (the clock advances once every effect is applied) and — the
        flush happening before the lock is released — never one that is not
        yet durable.  ``ddl`` are the logical catalog ops: logged with the
        row effects in one record, applied by the same applier recovery
        replays the record with.

        ``durable=False`` is the one exception, for an audit row: its frame
        is written to the OS, not fsynced; the next fsync of any kind covers
        it (:meth:`~repro.engine.wal.DurabilityManager.sync`).
        """
        ts = self._clock + 1
        lsn = None
        if self.wal is not None:
            lsn = self.wal.log_commit(
                ts,
                {plan.table.name.lower(): (plan.op, plan.payload) for plan in plans},
                ddl,
            )
        pins = [t for t in self._active.values() if t is not txn]
        self.database.apply_commit(ts, ddl, plans, pins)
        self._clock = ts
        if txn is not None:
            self._end_locked(txn, "committed")
        else:
            pinned_ts = {t.snapshot.ts for t in pins}
            for plan in plans:
                plan.table.prune_history(pinned_ts)
        if lsn is not None:
            self.wal.sync(lsn, durable)
        return ts

    def _end_locked(self, txn: Transaction, status: str) -> None:
        """Retire ``txn`` as ``"committed"`` or ``"aborted"`` and prune what
        only its snapshot still held."""
        txn.status = status
        self._active.pop(txn.txn_id, None)
        if status == "committed":
            self.stats.committed += 1
        else:
            self.stats.rolled_back += 1
        self.stats.active = len(self._active)
        self._prune_tables_locked(txn)

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

    def _validate_tables_locked(self, txn: Transaction) -> "list[WritePlan]":
        """Row-level first-committer-wins + rebase planning for staged DML.

        Without a concurrent commit to the table the plan costs what the
        transaction changed: one identity pass over the overlay and the
        keys of the changed rows.  Only a table that *did* change since the
        snapshot pays a walk over its rows, to rebase.
        """
        plans: list[WritePlan] = []
        for key, overlay in txn._staged.items():
            table = txn._tables[key]
            if self.database.tables.get(key) is not table:
                # Dropped since the snapshot: a logged write to it would
                # name a table recovery no longer has.
                raise self._conflict_locked(txn, table)
            base = overlay.base_rows
            changed = table.last_commit_ts > txn.snapshot.ts
            if key in txn._staged_schemas:
                # A schema change rewrites every row: it commits the whole
                # list and conflicts with any concurrent commit to the table.
                if changed:
                    raise self._conflict_locked(txn, table)
                plans.append(WritePlan(table, "replace", overlay.rows, None))
                continue
            pk = table.row_key_indexes()
            if overlay.append_only:
                rows = overlay.rows[len(base):]
                written = _keys(rows, pk)
                if changed and not self._compatible_locked(table, txn, written):
                    raise self._conflict_locked(txn, table)
                plans.append(WritePlan(table, "append", rows, written))
                continue
            if not changed:
                plans.append(_plan_write(table, base, overlay.rows, pk))
                continue
            delta = row_delta(base, overlay.rows)
            written = _written_keys(base, delta, pk)
            # A duplicate key makes "the row with this key" ambiguous: such
            # a table conflicts as a whole, it never rebases.
            if (
                not self._compatible_locked(table, txn, written)
                or not _unique_keys(base, pk)
                or not _unique_keys(overlay.rows, pk)
            ):
                raise self._conflict_locked(txn, table)
            # Rebase: re-address this transaction's changes to the latest
            # committed rows so the concurrent winner's disjoint rows survive.
            plans.append(WritePlan(
                table, "delta", _rebase(delta, base, table.latest_rows(), pk),
                written, rebased=True,
            ))
        return plans

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
        self.stats.conflicts += 1
        return WriteConflictError(table.name, txn.snapshot.ts, table.last_commit_ts)

    # -- snapshot horizon / history pruning --------------------------------

    def _pinned_locked(self) -> set[int]:
        """The snapshot timestamps active transactions pin."""
        return {t.snapshot.ts for t in self._active.values()}

    def _prune_tables_locked(self, txn: Transaction) -> None:
        pinned_ts = self._pinned_locked()
        for table in txn._tables.values():
            table.prune_history(pinned_ts)
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
