"""Row storage with per-tuple version chains (MVCC).

A :class:`Table` stores rows as Python tuples in insertion order.  Schema
evolution (ALTER TABLE) rewrites stored rows, which is what the paper's
framework-configuration step does when it appends the ``policy`` column to
every target-DB table (Section 5.1).

A table keeps two representations (DESIGN.md §15):

* ``_rows`` — the materialized latest-committed row list.  Readers outside
  any transaction hit it directly.
* ``_versions`` — the chain of :class:`TupleVersion` entries stamped
  with ``xmin``/``xmax`` commit timestamps.  A snapshot at ts sees
  exactly the versions with ``xmin <= ts`` and ``xmax`` unset or
  ``> ts``, reconstructed (and cached) on demand.  The live versions sit
  in row order — a version replacing a row takes the place right after
  it — so every snapshot reads its rows in their order; ``_dead``
  remembers where the closed ones are, which keeps applying a row delta
  and pruning proportional to what changed.

A committed write arrives as one of three effects (:meth:`Table
.apply_committed`): an append, a row delta (updated and deleted
positions plus inserted rows) or a whole-list replacement.  Row lists are
replaced, never mutated, by a delta, and untouched tuples stay the same
objects.

The *schema* is versioned the same way (DESIGN.md §16): ALTER TABLE
commits the rewritten rows and the new schema at one commit timestamp,
``_schema_log`` keeps ``(ts, schema)`` pairs, and the
:attr:`schema` property resolves the schema as of the reading snapshot —
an old snapshot sees old-width rows *and* the old schema.  Each committed
write also records its primary-key **write set** in ``_write_log`` so the
transaction manager can validate first-committer-wins at row granularity
(:meth:`written_since`).

The :attr:`rows`, :attr:`version` and :attr:`schema` properties consult
the context's active transaction (:mod:`repro.engine.mvcc`): inside a
transaction they serve the staged overlay/schema or the snapshot
reconstruction, and ``version`` returns a value that *identifies the
snapshot state* — an int for committed states, a ``("txn", id, bump)``
tuple for staged ones — so every cache keyed on ``Table.version`` (policy
bitmaps, index builds, table statistics) is snapshot-keyed for free and
can never leak staged or future state into another snapshot's reads.

Writers outside a transaction autocommit through the owning
:class:`~repro.engine.mvcc.TransactionManager` (one commit timestamp per
statement, WAL-logged when durability is attached).
"""

from __future__ import annotations

import bisect
from itertools import compress
from operator import is_not
from typing import Callable, Iterable, Iterator

from ..errors import ExecutionError
from .catalog import CatalogOp
from .mvcc import _ACTIVE, Transaction, TransactionManager, _WritePlan
from .schema import Column, TableSchema
from .types import coerce_value

#: Bound on the per-table snapshot-reconstruction cache.
_ASOF_CACHE_LIMIT = 8


def _without(items: list, positions) -> list:
    """A copy of ``items`` minus the given positions (a C-speed filter)."""
    keep = [True] * len(items)
    for position in positions:
        keep[position] = False
    return list(compress(items, keep))


def replaced_positions(old: list, length: int, rows: list):
    """The positions below ``length`` where ``rows`` holds another tuple
    object than ``old``, or ``None`` when ``rows`` is shorter than
    ``length`` (a row was deleted: whatever was derived from ``old`` must
    be rebuilt).

    A commit keeps every untouched tuple the very same object, so this one
    C-speed identity pass is how an index entry or a policy bitmap derived
    from ``old[:length]`` finds the rows it has to look at again.
    """
    if len(rows) < length:
        return None
    if rows is old:
        return ()
    return compress(range(length), map(is_not, old, rows))


class TupleVersion:
    """One version of one row: visible to snapshots in ``[xmin, xmax)``."""

    __slots__ = ("row", "xmin", "xmax")

    def __init__(self, row: tuple, xmin: int, xmax: "int | None" = None):
        self.row = row
        self.xmin = xmin
        self.xmax = xmax

    def visible_at(self, ts: int) -> bool:
        return self.xmin <= ts and (self.xmax is None or self.xmax > ts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TupleVersion(xmin={self.xmin}, xmax={self.xmax}, row={self.row!r})"


class Table:
    """A heap table: a schema, a row list and an MVCC version chain."""

    def __init__(self, schema: TableSchema):
        self._schema = schema
        #: ``(commit ts, schema)`` pairs, ascending — the schema history a
        #: pinned snapshot resolves :attr:`schema` against.
        self._schema_log: list[tuple[int, TableSchema]] = [(0, schema)]
        self._last_schema_ts: int = 0
        self._rows: list[tuple] = []
        #: Bumped on every committed change; cached artifacts derived from
        #: the rows (policy bitmaps, index builds, statistics) key on the
        #: :attr:`version` property to detect staleness.
        self._version: int = 0
        self._versions: list[TupleVersion] = []
        #: Ascending chain positions of the closed versions (``xmax`` set)
        #: still in ``_versions``; empty whenever no snapshot pins history.
        #: A whole-list replacement leaves a ``range`` here.
        self._dead: "list[int] | range" = []
        #: ``(commit ts, version)`` pairs, ascending; maps a snapshot ts to
        #: the committed ``version`` value it observes.
        self._commit_log: list[tuple[int, int]] = [(0, 0)]
        #: ``(commit ts, write set)`` pairs, ascending.  The write set is a
        #: frozenset of primary-key tuples, or ``None`` for "all rows"
        #: (no primary key, schema change).
        self._write_log: list[tuple[int, "frozenset | None"]] = []
        self._last_commit_ts: int = 0
        self._manager: TransactionManager | None = None
        self._asof_cache: dict[int, list[tuple]] = {}
        self._pk_cache: "tuple[TableSchema, tuple[int, ...]] | None" = None

    # -- transaction plumbing ------------------------------------------------

    def attach_manager(self, manager: TransactionManager) -> None:
        """Bind this table to its database's transaction manager."""
        self._manager = manager

    @property
    def manager(self) -> TransactionManager:
        """The owning transaction manager (created lazily when detached)."""
        if self._manager is None:
            self._manager = TransactionManager()
        return self._manager

    def _active_txn(self) -> "Transaction | None":
        """The context transaction, iff it belongs to this table's manager."""
        txn = _ACTIVE.get()
        if (
            txn is None
            or txn.status != "active"
            or self._manager is None
            or txn.manager is not self._manager
        ):
            return None
        return txn

    @property
    def last_commit_ts(self) -> int:
        """Commit timestamp of the most recent committed change."""
        return self._last_commit_ts

    # -- schema access -------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        """The visible schema.

        Inside a transaction: the schema staged by this transaction's
        ALTER TABLE if any, otherwise the schema as of the snapshot
        timestamp.  Outside: the latest committed schema.
        """
        txn = self._active_txn()
        if txn is not None:
            staged = txn.staged_schema(self)
            if staged is not None:
                return staged
            if txn.snapshot.ts < self._last_schema_ts:
                return self.schema_as_of(txn.snapshot.ts)
        return self._schema

    def schema_as_of(self, ts: int) -> TableSchema:
        """The committed schema visible to a snapshot at ``ts``."""
        for committed_ts, schema in reversed(self._schema_log):
            if committed_ts <= ts:
                return schema
        return self._schema_log[0][1]

    def apply_committed_schema(self, schema: TableSchema, ts: int) -> None:
        """Install a committed schema change at timestamp ``ts``."""
        self._schema = schema
        self._pk_cache = None
        self._schema_log.append((ts, schema))
        self._last_schema_ts = ts

    def row_key_indexes(self) -> tuple[int, ...]:
        """Column indexes of the primary key in the latest committed schema.

        Empty when the table declares no primary key — write-set tracking
        then falls back to table granularity.
        """
        schema = self._schema
        cached = self._pk_cache
        if cached is not None and cached[0] is schema:
            return cached[1]
        pk = tuple(
            index
            for index, column in enumerate(schema.columns)
            if column.primary_key
        )
        self._pk_cache = (schema, pk)
        return pk

    # -- row access ----------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """The visible row tuples, in insertion order.

        Outside a transaction: the latest committed rows.  Inside one: the
        transaction's staged overlay if it wrote this table, otherwise the
        reconstruction as of the transaction's snapshot timestamp.
        """
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.staged(self)
            if overlay is not None:
                return overlay.rows
            if txn.snapshot.ts < self._last_commit_ts:
                return self.rows_as_of(txn.snapshot.ts)
        return self._rows

    @rows.setter
    def rows(self, new_rows: list[tuple]) -> None:
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.stage(self)
            overlay.rows = list(new_rows)
            overlay.append_only = False
            overlay.bump += 1
            return
        self.manager.commit_single(self, "replace", list(new_rows))

    def latest_rows(self) -> list[tuple]:
        """The latest committed rows, ignoring any ambient transaction.

        Used by the transaction manager (under its lock) for commit-time
        write-set diffs and rebases.
        """
        return self._rows

    @property
    def version(self) -> "int | tuple":
        """Snapshot identity of the visible row state.

        An int for committed states (strictly increasing per commit); a
        ``("txn", txn_id, bump)`` tuple while reading a staged overlay.
        Tuples never compare equal to ints, so version-keyed caches can
        neither serve committed artifacts for staged state nor retain
        staged artifacts after rollback.
        """
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.staged(self)
            if overlay is not None:
                return ("txn", txn.txn_id, overlay.bump)
            if txn.snapshot.ts < self._last_commit_ts:
                return self.version_as_of(txn.snapshot.ts)
        return self._version

    @property
    def name(self) -> str:
        """The table name."""
        return self._schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    # -- snapshot reconstruction ----------------------------------------------

    def rows_as_of(self, ts: int) -> list[tuple]:
        """The committed rows visible to a snapshot at ``ts``.

        Reconstructed from the version chain and cached per timestamp; the
        reconstruction is safe against concurrent committed appends (their
        versions carry a later ``xmin`` and are filtered out).
        """
        if ts >= self._last_commit_ts:
            return self._rows
        cached = self._asof_cache.get(ts)
        if cached is None:
            cached = [v.row for v in self._versions if v.visible_at(ts)]
            if len(self._asof_cache) >= _ASOF_CACHE_LIMIT:
                self._asof_cache.clear()
            self._asof_cache[ts] = cached
        return cached

    def version_as_of(self, ts: int) -> int:
        """The committed ``version`` value a snapshot at ``ts`` observes.

        Snapshots over an unchanged table share the latest committed int,
        so version-keyed caches (bitmaps, indexes, statistics) are shared
        across snapshots whenever sharing is sound.
        """
        if ts >= self._last_commit_ts:
            return self._version
        index = bisect.bisect_right(self._commit_log, (ts, float("inf"))) - 1
        return self._commit_log[max(index, 0)][1]

    def written_since(self, ts: int) -> "frozenset | None":
        """Union of the write sets of commits after ``ts``.

        ``None`` means "potentially every row": at least one of those
        commits had no row-level write set (no primary key, a schema
        change), so a concurrent writer must conflict regardless of which
        rows it touched.
        """
        written: set = set()
        for committed_ts, keys in reversed(self._write_log):
            if committed_ts <= ts:
                break
            if keys is None:
                return None
            written |= keys
        return frozenset(written)

    def prune_versions(self, horizon: int) -> None:
        """Drop versions invisible to every snapshot at or after ``horizon``.

        Returns at once when no version is dead: an append-only table (the
        audit trail) never walks or reallocates its chain.
        """
        if self._write_log and self._write_log[0][0] <= horizon:
            self._write_log = [
                entry for entry in self._write_log if entry[0] > horizon
            ]
        if len(self._schema_log) > 1 and self._schema_log[1][0] <= horizon:
            keep = 0
            for index, (committed_ts, _schema) in enumerate(self._schema_log):
                if committed_ts <= horizon:
                    keep = index
            if keep > 0:
                self._schema_log = self._schema_log[keep:]
        if len(self._commit_log) > 1 and self._commit_log[1][0] <= horizon:
            cut = bisect.bisect_right(self._commit_log, (horizon, float("inf"))) - 1
            self._commit_log = self._commit_log[cut:]
        if not self._dead:
            return
        versions = self._versions
        dropped: list[int] = []
        held: list[int] = []
        for position in self._dead:
            if versions[position].xmax <= horizon:
                dropped.append(position)
            else:
                held.append(position - len(dropped))
        if dropped:
            self._versions = _without(versions, dropped)
            self._dead = held
            self._asof_cache.clear()

    # -- commit application (called by the transaction manager) ---------------

    def apply_committed(
        self, op: str, payload, ts: int, written: "frozenset | None" = None
    ) -> None:
        """Apply one committed effect — what a WAL record carries per table:
        ``"append"`` (rows), ``"delta"`` (``(updates, deletes, inserts)``)
        or ``"replace"`` (the whole row list)."""
        if op == "append":
            self.apply_committed_append(payload, ts, written)
        elif op == "delta":
            self.apply_committed_delta(*payload, ts, written)
        else:
            self.apply_committed_replace(payload, ts, written)

    def apply_committed_append(
        self, rows: list[tuple], ts: int, written: "frozenset | None" = None
    ) -> None:
        """Apply an append-only commit at timestamp ``ts``."""
        self._rows.extend(rows)
        self._versions.extend(TupleVersion(row, ts) for row in rows)
        self._committed(ts, written)

    def apply_committed_delta(
        self,
        updates: "list[tuple[int, tuple]]",
        deletes: list[int],
        inserts: list[tuple],
        ts: int,
        written: "frozenset | None" = None,
    ) -> None:
        """Apply a row delta at timestamp ``ts`` in time proportional to it.

        ``updates`` pairs a position in the latest committed rows with the
        row replacing it, ``deletes`` lists positions, ``inserts`` are
        appended.  Only the touched rows' versions are closed, and a
        replacing version takes the place right after its predecessor, so
        the live versions stay in row order and a pinned snapshot keeps
        reading its rows in their order.  Both lists are replaced, never
        mutated (a reader may hold either), and untouched tuples stay the
        same objects — index carry-forward and bitmap revalidation tell a
        written row by identity.
        """
        versions, dead = self._versions, self._dead
        successors = dict(updates)
        chain: list[TupleVersion] = []
        closed: list[int] = []  # the new chain's dead positions
        copied = skipped = grown = 0
        for position in sorted([*successors, *deletes]):
            # The row's chain slot: its position, past the dead versions.
            slot = position + skipped
            while skipped < len(dead) and dead[skipped] <= slot:
                closed.append(dead[skipped] + grown)
                skipped += 1
                slot += 1
            versions[slot].xmax = ts
            closed.append(slot + grown)
            if position in successors:
                chain += versions[copied : slot + 1]
                chain.append(TupleVersion(successors[position], ts))
                copied = slot + 1
                grown += 1
        closed.extend(position + grown for position in dead[skipped:])
        chain += versions[copied:]
        chain.extend(TupleVersion(row, ts) for row in inserts)

        rows = list(self._rows)
        for position, row in updates:
            rows[position] = row
        if deletes:
            rows = _without(rows, deletes)
        rows.extend(inserts)

        self._versions, self._dead = chain, closed
        # Before the rows: a snapshot older than ``ts`` must already take
        # the reconstruction path when the new list appears.
        self._last_commit_ts = ts
        self._rows = rows
        self._committed(ts, written)

    def apply_committed_replace(
        self, rows: list[tuple], ts: int, written: "frozenset | None" = None
    ) -> None:
        """Apply a whole-list replacement commit at timestamp ``ts``."""
        for version in self._versions:
            if version.xmax is None:
                version.xmax = ts
        self._dead = range(len(self._versions))
        self._versions.extend(TupleVersion(row, ts) for row in rows)
        self._last_commit_ts = ts  # before the rows, as in a delta
        self._rows = list(rows)
        self._committed(ts, written)

    def _committed(self, ts: int, written: "frozenset | None") -> None:
        self._version += 1
        self._commit_log.append((ts, self._version))
        self._write_log.append((ts, written))
        self._last_commit_ts = ts

    # -- DML -----------------------------------------------------------------

    def _coerce_insert(
        self, values: Iterable[object], columns: tuple[str, ...] = ()
    ) -> tuple:
        """Align ``values`` with the schema, coerce types, check NOT NULL."""
        values = list(values)
        schema = self.schema
        if columns:
            if len(values) != len(columns):
                raise ExecutionError(
                    f"INSERT into {self.name!r}: {len(columns)} columns but "
                    f"{len(values)} values"
                )
            row = [column.default for column in schema.columns]
            for column_name, value in zip(columns, values):
                row[schema.column_index(column_name)] = value
        else:
            if len(values) != len(schema):
                raise ExecutionError(
                    f"INSERT into {self.name!r}: expected {len(schema)} "
                    f"values, got {len(values)}"
                )
            row = values
        coerced = tuple(
            coerce_value(column.sql_type, value)
            for column, value in zip(schema.columns, row)
        )
        for column, value in zip(schema.columns, coerced):
            if value is None and column.not_null:
                raise ExecutionError(
                    f"NULL value in NOT NULL column {column.name!r} of "
                    f"table {self.name!r}"
                )
        return coerced

    def insert_row(self, values: Iterable[object], columns: tuple[str, ...] = ()) -> None:
        """Insert one row.

        When ``columns`` is given, missing columns get their declared default
        (or NULL); otherwise ``values`` must cover the full schema in order.
        """
        coerced = self._coerce_insert(values, columns)
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.stage(self)
            overlay.rows.append(coerced)
            overlay.bump += 1
            return
        self.manager.commit_single(self, "append", [coerced])

    def append_rows(
        self, rows: Iterable[Iterable[object]], columns: tuple[str, ...] = ()
    ) -> int:
        """Insert many rows with a *single* version bump.

        The bulk-load counterpart of :meth:`insert_row`: every row is
        coerced and NOT NULL-checked up front, then storage and ``version``
        change atomically — either all rows land (one bump, so one bitmap
        rebuild) or, on a bad row, none do.  Returns the inserted count.
        """
        coerced = [self._coerce_insert(row, columns) for row in rows]
        if coerced:
            txn = self._active_txn()
            if txn is not None:
                overlay = txn.stage(self)
                overlay.rows.extend(coerced)
                overlay.bump += 1
            else:
                self.manager.commit_single(self, "append", coerced)
        return len(coerced)

    def extend(self, rows: Iterable[Iterable[object]]) -> int:
        """Bulk-append full-width rows (see :meth:`append_rows`)."""
        return self.append_rows(rows)

    def update_rows(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], tuple],
        candidates: "list[int] | None" = None,
    ) -> int:
        """Apply ``updater`` to every row matching ``predicate``; return count.

        ``candidates`` — ascending row positions, from an index — narrows
        the rows ``predicate`` is evaluated on; ``None`` is every row.
        Unmatched tuples stay the same objects at the same positions.
        """
        rows = self.rows
        schema = self.schema
        new_rows = list(rows)
        if candidates is None:
            pairs = enumerate(rows)
        else:
            pairs = ((position, rows[position]) for position in candidates)
        updated = 0
        for position, row in pairs:
            if predicate(row):
                new_rows[position] = tuple(
                    coerce_value(column.sql_type, value)
                    for column, value in zip(schema.columns, updater(row))
                )
                updated += 1
        self.rows = new_rows
        return updated

    def delete_rows(
        self,
        predicate: Callable[[tuple], bool],
        candidates: "list[int] | None" = None,
    ) -> int:
        """Delete every row matching ``predicate``; return the count
        (``candidates`` as in :meth:`update_rows`)."""
        rows = self.rows
        if candidates is None:
            kept = [row for row in rows if not predicate(row)]
        else:
            kept = _without(rows, [p for p in candidates if predicate(rows[p])])
        self.rows = kept
        return len(rows) - len(kept)

    def truncate(self) -> None:
        """Remove all rows."""
        self.rows = []

    # -- DDL -----------------------------------------------------------------

    def add_column(self, column: Column) -> None:
        """Append a column, filling existing rows with its default.

        Since the catalog work (DESIGN.md §16) ALTER TABLE is a versioned
        commit, not a barrier: inside a transaction it stages the new
        schema and the widened rows in the transaction's overlay (visible
        only to that transaction until commit, first-committer-wins on the
        table's ``schema`` catalog entry); outside one it autocommits rows
        and schema at a single timestamp, so pinned snapshots keep seeing
        the old rows under the old schema.
        """
        new_schema = self.schema.with_column(column)
        fill = column.default
        txn = self._active_txn()
        if txn is not None:
            self._stage_schema_change(
                txn,
                new_schema,
                lambda row: (*row, fill),
                wal={"op": "add_column", "table": self.name, "column": column},
                describe=f"ALTER TABLE {self.name} ADD COLUMN {column.name}",
            )
            return
        new_rows = [(*row, fill) for row in self._rows]
        self._autocommit_schema_change(
            new_schema,
            new_rows,
            wal={"op": "add_column", "table": self.name, "column": column},
        )

    def drop_column(self, name: str) -> None:
        """Drop a column and rewrite stored rows."""
        index = self.schema.column_index(name)
        new_schema = self.schema.without_column(name)

        def narrow(row: tuple) -> tuple:
            return tuple(v for i, v in enumerate(row) if i != index)

        txn = self._active_txn()
        if txn is not None:
            self._stage_schema_change(
                txn,
                new_schema,
                narrow,
                wal={"op": "drop_column", "table": self.name, "column": name},
                describe=f"ALTER TABLE {self.name} DROP COLUMN {name}",
            )
            return
        new_rows = [narrow(row) for row in self._rows]
        self._autocommit_schema_change(
            new_schema,
            new_rows,
            wal={"op": "drop_column", "table": self.name, "column": name},
        )

    def _stage_schema_change(
        self,
        txn: Transaction,
        new_schema: TableSchema,
        rewrite: Callable[[tuple], tuple],
        wal: dict,
        describe: str,
    ) -> None:
        """Stage an ALTER in the transaction: rewrite the overlay rows and
        record the schema as a catalog op (conflicting first-committer-wins
        on the table's ``schema`` entry)."""
        overlay = txn.stage(self)
        overlay.rows = [rewrite(row) for row in overlay.rows]
        overlay.append_only = False
        overlay.bump += 1
        txn._staged_schemas[self.name.lower()] = new_schema
        txn.add_catalog_op(
            CatalogOp(
                "schema",
                self.name.lower(),
                new_schema,
                wal=wal,
                apply=lambda ts: self.apply_committed_schema(new_schema, ts),
                describe=describe,
            )
        )

    def _autocommit_schema_change(
        self, new_schema: TableSchema, new_rows: list[tuple], wal: dict
    ) -> None:
        """Commit an ALTER outside any transaction: schema + rewritten rows
        land at one timestamp (WAL DDL record when durability is attached)."""
        key = self.name.lower()
        op = CatalogOp(
            "schema",
            key,
            new_schema,
            wal=wal,
            apply=lambda ts: self.apply_committed_schema(new_schema, ts),
        )
        self.manager.commit_ddl(
            [op], {key: _WritePlan(self, "replace", new_rows, None)}
        )

    # -- column-level access (used by the policy administration layer) --------

    def column_values(self, name: str) -> list[object]:
        """All values of one column, in row order."""
        index = self.schema.column_index(name)
        return [row[index] for row in self.rows]

    def set_column_value(
        self,
        name: str,
        value: object,
        predicate: Callable[[tuple], bool] | None = None,
    ) -> int:
        """Assign ``value`` to a column on all (or predicate-matching) rows."""
        index = self.schema.column_index(name)
        column = self.schema.columns[index]
        coerced = coerce_value(column.sql_type, value)

        def updater(row: tuple) -> tuple:
            return (*row[:index], coerced, *row[index + 1 :])

        if predicate is None:
            updated = self.rows
            self.rows = [updater(row) for row in updated]
            return len(updated)
        return self.update_rows(predicate, updater)
