"""Snapshot-isolation MVCC: snapshots, transactions and the commit path.

The engine's concurrency model — *policy writes never stall readers* —
and its one write path (DESIGN.md §15):

* A :class:`Snapshot` is the pair ``(commit ts, catalog version)``: which
  row list each table shows it (the one the latest commit at or before
  ts left, :meth:`~repro.engine.table.Table.rows_as_of`) *and* which
  schemas, index definitions and purpose taxonomy the query is planned
  and enforced under.  Every commit prunes the history of the tables it
  wrote to the lists the active snapshots pin.
* **Stage.**  A write names its rows: ``Table.update_rows`` /
  ``delete_rows`` hand the positions they chose on to the write as a
  delta ``(updates, deletes, inserts)`` over the list they read.  A
  :class:`Transaction` folds each statement's delta into a per-table
  overlay over the snapshot's rows and stages DDL as
  :class:`~repro.engine.catalog.CatalogOp` entries.  Outside ``BEGIN`` a
  DDL statement is its own transaction
  (:meth:`TransactionManager.statement_transaction`); an autocommit DML
  statement builds none and commits its delta as it stands
  (:meth:`TransactionManager.commit_single`).  No commit diffs lists.
* **Validate** first-committer-wins: a catalog op conflicts on its catalog
  entry (:class:`~repro.errors.CatalogConflictError`), a row write on the
  primary keys of the rows its delta names
  (:class:`~repro.errors.WriteConflictError`).  A disjoint-row
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
from operator import itemgetter
from typing import TYPE_CHECKING, Iterator

from ..errors import (
    CatalogConflictError,
    ReproError,
    TransactionError,
    WriteConflictError,
)
from .catalog import Catalog, CatalogOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .schema import TableSchema
    from .table import Table


@dataclass(frozen=True)
class Snapshot:
    """Snapshot identity: data visibility horizon × catalog version.

    ``ts`` is the highest commit timestamp visible to the snapshot;
    ``catalog_version`` is the metadata version — schemas, indexes, and the
    epoch a taxonomy edit moves with its Pr/Pm rows — the snapshot's
    queries are planned and enforced under (plan cache keying, DESIGN.md
    §15).
    """

    ts: int
    catalog_version: int


class _StagedTable:
    """A transaction's private overlay over one table: its writes as one
    delta over ``base``, the snapshot's row list itself (never copied;
    :meth:`Transaction.stage` marks the table read first, so no append
    extends it).

    ``updates`` maps a base position to the row replacing it, ``deletes``
    holds base positions and ``inserts`` the rows appended after the
    survivors — the record the commit plans from, so it never diffs lists.
    :attr:`rows`, what statements inside the transaction read, is that
    delta applied to ``base``: built on the first read after a write, so, as
    for a committed list, (list, length) names one staged state and caches
    derived from the rows never serve one staged state for another.
    """

    __slots__ = ("base", "updates", "deletes", "inserts", "_rows")

    def __init__(self, base: list[tuple]):
        self.base = base
        self.updates: dict[int, tuple] = {}
        self.deletes: set[int] = set()
        self.inserts: list[tuple] = []
        self._rows: "list[tuple] | None" = base

    @property
    def rows(self) -> list[tuple]:
        """The rows the transaction sees: ``base`` with its writes applied."""
        if self._rows is None:
            self._rows = apply_delta(self.base, self.delta())
        return self._rows

    def delta(self) -> "tuple[list[tuple[int, tuple]], list[int], list[tuple]]":
        """``(updates, deletes, inserts)`` over ``base``, positions ascending."""
        return sorted(self.updates.items()), sorted(self.deletes), self.inserts

    def write(self, updates, deletes, inserts) -> None:
        """Fold one statement's delta, addressed to :attr:`rows`, into the
        overlay.  A visible position below the survivors' count is a base
        row — through the survivors of ``base`` once a delete has happened —
        and one above it a row this transaction inserted."""
        kept = len(self.base) - len(self.deletes)
        survivors = range(len(self.base))
        if self.deletes and (updates or deletes):
            survivors = sorted(set(survivors) - self.deletes)
        for position, row in updates:
            if position < kept:
                self.updates[survivors[position]] = row
            else:
                self.inserts[position - kept] = row
        for position in deletes:
            if position < kept:
                self.updates.pop(survivors[position], None)
                self.deletes.add(survivors[position])
        dropped = [position - kept for position in deletes if position >= kept]
        if dropped:
            self.inserts = _without(self.inserts, dropped)
        self.inserts.extend(inserts)
        if updates or deletes or self._rows is self.base:
            self._rows = None
        elif self._rows is not None:
            self._rows.extend(inserts)  # an append grows the staged list in place


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
        #: Tables whose write set is the whole table (:meth:`claim`).
        self._claimed: set[str] = set()

    # -- staging -----------------------------------------------------------

    def staged(self, table: "Table") -> "_StagedTable | None":
        """The overlay for ``table`` if this transaction wrote it."""
        return self._staged.get(table.name.lower())

    def stage(self, table: "Table") -> _StagedTable:
        """Get-or-create the write overlay for ``table``."""
        key = table.name.lower()
        overlay = self._staged.get(key)
        if overlay is None:
            self._read.add(table)  # as in Table.rows: no append extends base
            overlay = _StagedTable(table.rows_as_of(self.snapshot.ts))
            self._staged[key] = overlay
            self._tables[key] = table
        return overlay

    def claim(self, table: "Table") -> None:
        """Give ``table`` a table-wide write set, as a schema change has:
        its commit conflicts with any concurrent commit to the table, and a
        concurrent writer's with it, whichever rows either wrote."""
        self.stage(table)
        self._claimed.add(table.name.lower())

    def staged_schema(self, table: "Table") -> "TableSchema | None":
        """The schema staged by this transaction's ALTER TABLE, if any."""
        return self._staged_schemas.get(table.name.lower())

    def add_catalog_op(self, op: CatalogOp) -> None:
        """Stage a catalog mutation (transactional DDL)."""
        self._catalog_ops.append(op)

    def stages_catalog(self) -> bool:
        """Whether this transaction staged DDL or a taxonomy edit: what it
        reads is then its own, not its catalog version's."""
        return bool(self._catalog_ops)

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
    applies it: ``"append"`` (rows), ``"delta"`` (``(updates, deletes,
    inserts)``, positions in the latest committed rows) or ``"replace"``
    (the whole new row list).  ``written`` is the primary-key write set, or
    ``None`` for "every row" (and for a replayed effect).
    """

    __slots__ = ("table", "op", "payload", "written", "rebased")

    def __init__(self, table, op, payload, written, rebased=False):
        self.table = table
        self.op = op
        self.payload = payload
        self.written = written
        self.rebased = rebased


def _without(items: list, positions) -> list:
    """A copy of ``items`` minus the given positions (a C-speed filter)."""
    keep = [True] * len(items)
    for position in positions:
        keep[position] = False
    return list(compress(items, keep))


def apply_delta(rows: list[tuple], delta) -> list[tuple]:
    """A new list: ``rows`` with ``delta`` — ``(updates, deletes,
    inserts)``, positions in ``rows`` — applied.  Untouched tuples stay
    the same objects, so a structure following the rows tells a written
    row by identity."""
    updates, deletes, inserts = delta
    rows = list(rows)
    for position, row in updates:
        rows[position] = row
    if deletes:
        rows = _without(rows, deletes)
    rows.extend(inserts)
    return rows


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


def _plan_write(table, base: list[tuple], delta, pk) -> WritePlan:
    """The cheapest effect of ``delta`` over ``base``: an append when no
    existing row is touched, the whole list when every one is (TRUNCATE,
    ALTER TABLE, an assignment to all rows, a replacement), the delta
    otherwise.  The write set is the delta's keys (:func:`_written_keys`)."""
    updates, deletes, inserts = delta
    written = _written_keys(base, delta, pk)
    touched = len(updates) + len(deletes)
    if not touched:
        return WritePlan(table, "append", inserts, written)
    if touched >= len(base):
        return WritePlan(table, "replace", apply_delta(base, delta), written)
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

    One manager per :class:`~repro.engine.database.Database`: its catalog
    is what snapshots pin, and its ``apply_commit`` is the one applier
    every commit goes through.
    """

    def __init__(self, database: "Database"):
        #: The write fence (:meth:`exclusive`); lock order is fence →
        #: ``_lock``, and nothing takes the fence while holding ``_lock``.
        self._fence = threading.RLock()
        self._lock = threading.Lock()
        self._clock = 0
        self._txn_counter = 0
        self._active: dict[int, Transaction] = {}
        self.stats = TxnStats()
        self.database = database
        #: Durability hook (:class:`~repro.engine.wal.DurabilityManager`);
        #: ``None`` for purely in-memory databases.
        self.wal = None

    @property
    def catalog(self) -> "Catalog":
        """The owning database's versioned catalog."""
        return self.database.catalog

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
        """The catalog version new snapshots pin."""
        return self.database.catalog.version

    def visible_catalog_version(self) -> int:
        """The catalog version metadata reads resolve at: the ambient
        transaction's pinned version, or the latest outside one.

        The one rule for which schemas and index definitions a reader
        sees, and the epoch its plans are cached under.
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

    def commit_single(self, table: "Table", delta, durable=True) -> int:
        """Commit one autocommit statement's write to one table.

        ``delta`` is ``(updates, deletes, inserts)`` addressed to the latest
        committed rows: the positions the statement chose itself
        (``Table.update_rows``/``delete_rows``, which read and commit under
        :meth:`autocommit_exclusive`, so no other writer lands in between),
        or only inserts.  It is planned as it stands (:func:`_plan_write`);
        nothing is diffed.  No :class:`Transaction` is built: every audited
        read autocommits an append, so this stays the plan plus
        :meth:`_commit_locked`.  The commit's row-level write set is recorded
        so concurrent transactions validate against it at *their* commit.
        ``durable`` as for :meth:`_commit_locked`.
        """
        with self._fence, self._lock:
            plan = _plan_write(table, table.latest_rows(), delta, table.row_key_indexes())
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
            committed = self.catalog.last_commit_version(op.kind, op.key)
            if committed > txn.snapshot.catalog_version:
                self.stats.catalog_conflicts += 1
                self.stats.conflicts += 1
                raise CatalogConflictError(
                    op.kind, op.key, txn.snapshot.catalog_version, committed
                )
            if op.validate is not None:
                op.validate()

    def _validate_tables_locked(self, txn: Transaction) -> "list[WritePlan]":
        """Row-level first-committer-wins + rebase planning for staged DML.

        Each overlay already holds its delta over the snapshot's rows, so
        without a concurrent commit to the table the plan costs what the
        transaction changed: the keys of the changed rows.  Only a table that
        *did* change since the snapshot pays a walk over its rows, to rebase.
        """
        plans: list[WritePlan] = []
        for key, overlay in txn._staged.items():
            table = txn._tables[key]
            if self.database.tables.get(key) is not table:
                # Dropped since the snapshot: a logged write to it would
                # name a table recovery no longer has.
                raise self._conflict_locked(txn, table)
            changed = table.last_commit_ts > txn.snapshot.ts
            if key in txn._staged_schemas:
                # A schema change rewrites every row: it commits the whole
                # list and conflicts with any concurrent commit to the table.
                if changed:
                    raise self._conflict_locked(txn, table)
                plans.append(WritePlan(table, "replace", overlay.rows, None))
                continue
            pk = table.row_key_indexes()
            delta, base = overlay.delta(), overlay.base
            plan = _plan_write(table, base, delta, pk)
            if key in txn._claimed:
                plan.written = None
            if changed:
                if not self._compatible_locked(table, txn, plan.written):
                    raise self._conflict_locked(txn, table)
                if plan.op != "append":
                    # A duplicate key makes "the row with this key"
                    # ambiguous: such a table conflicts as a whole, it
                    # never rebases.
                    if not _unique_keys(base, pk) or not _unique_keys(overlay.rows, pk):
                        raise self._conflict_locked(txn, table)
                    # Rebase: re-address this transaction's changes to the
                    # latest rows so the concurrent winner's disjoint rows
                    # survive.
                    plan = WritePlan(
                        table, "delta", _rebase(delta, base, table.latest_rows(), pk),
                        plan.written, rebased=True,
                    )
            plans.append(plan)
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
        if self._active:
            pinned = min(t.snapshot.catalog_version for t in self._active.values())
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
