"""Row storage with a short history of committed row lists (MVCC).

A :class:`Table` stores rows as Python tuples in insertion order.  Schema
evolution (ALTER TABLE) rewrites stored rows, which is what the paper's
framework-configuration step does when it appends the ``policy`` column to
every target-DB table (Section 5.1).

A committed row list is only ever mutated by appending — an update, a
delete, a replacement and every staged rewrite build a new list — so the
pair (row list object, length) names exactly one committed or staged
state.  A table keeps (DESIGN.md §15):

* ``_rows`` — the latest committed row list.  Readers outside any
  transaction, and snapshots no later than its commit, hit it directly.
* ``_history`` — ``[commit ts, row list, length]`` entries, ascending: the
  pair each commit left.  A pinned snapshot at ts reads the newest entry
  no later than ts, cut to its length once if later appends extended the
  list in place.  Pruning keeps the last entry and any entry a pinned
  snapshot still reads, so the history is one entry when nothing is
  pinned and one per pinned timestamp under pins.

A committed write arrives as one of three effects (:meth:`Table
.apply_committed`): an append, a row delta (updated and deleted
positions plus inserted rows) or a whole-list replacement.  Untouched
tuples stay the same objects.

The *schema* is versioned the same way (DESIGN.md §15): ALTER TABLE
commits the rewritten rows and the new schema at one commit timestamp,
``_schema_log`` keeps ``(ts, schema)`` pairs, and the
:attr:`schema` property resolves the schema as of the reading snapshot —
an old snapshot sees old-width rows *and* the old schema.  Each committed
write also records its primary-key **write set** in ``_write_log`` so the
transaction manager can validate first-committer-wins at row granularity
(:meth:`written_since`).

The :attr:`rows` and :attr:`schema` properties consult the context's
active transaction (:mod:`repro.engine.mvcc`): inside a transaction they
serve the staged overlay/schema or the snapshot's row list.  Everything
derived from the rows (the column image, index entries and the policy
posting index) is valid for exactly the (list, length) pair it was built
from, so no staged or future state can leak into another snapshot's
reads; each is carried to another list by :func:`replaced_positions`.

Writers outside a transaction autocommit through the owning
:class:`~repro.engine.mvcc.TransactionManager` (one commit timestamp per
statement, WAL-logged when durability is attached).
"""

from __future__ import annotations

from itertools import compress
from operator import is_not
from typing import Callable, Collection, Iterable, Iterator, Sequence

from ..errors import ExecutionError
from .catalog import CatalogOp
from .mvcc import _ACTIVE, Transaction, TransactionManager
from .schema import Column, TableSchema
from .types import coerce_value


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


class Table:
    """A heap table: a schema, a row list and the row lists snapshots pin."""

    def __init__(self, schema: TableSchema):
        self._schema = schema
        #: ``(commit ts, schema)`` pairs, ascending — the schema history a
        #: pinned snapshot resolves :attr:`schema` against.
        self._schema_log: list[tuple[int, TableSchema]] = [(0, schema)]
        self._last_schema_ts: int = 0
        self._rows: list[tuple] = []
        #: ``[commit ts, row list, length]`` entries, ascending — the row
        #: history a pinned snapshot resolves :attr:`rows` against.
        self._history: list[list] = [[0, self._rows, 0]]
        #: ``(commit ts, write set)`` pairs, ascending.  The write set is a
        #: frozenset of primary-key tuples, or ``None`` for "all rows"
        #: (no primary key, schema change).
        self._write_log: list[tuple[int, "frozenset | None"]] = []
        self._last_commit_ts: int = 0
        self._manager: TransactionManager | None = None
        self._pk_cache: "tuple[TableSchema, tuple[int, ...]] | None" = None
        #: The latest committed rows' ``(rows, length, columns)``, or None.
        self._image: "tuple[list, int, list[Sequence]] | None" = None

    # -- transaction plumbing ------------------------------------------------

    def attach_manager(self, manager: TransactionManager) -> None:
        """Bind this table to its database's transaction manager."""
        self._manager = manager

    @property
    def manager(self) -> TransactionManager:
        """The owning transaction manager.  A detached table joins a private
        database on first use, whose applier its commits then go through."""
        if self._manager is None:
            from .database import Database  # import cycle: database → table

            database = Database()
            database.tables[self.name.lower()] = self
            self.attach_manager(database.transactions)
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

    def apply_committed_alter(self, ddl: dict, ts: int) -> TableSchema:
        """Apply a committed ``add_column``/``drop_column`` op at ``ts`` to
        the latest committed schema — never a snapshot's or a transaction's
        staged one — and return the new schema."""
        if ddl["op"] == "add_column":
            schema = self._schema.with_column(ddl["column"])
        else:
            schema = self._schema.without_column(ddl["column"])
        self._schema = schema
        self._pk_cache = None
        self._schema_log.append((ts, schema))
        self._last_schema_ts = ts
        return schema

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
        row list as of the transaction's snapshot timestamp.
        """
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.staged(self)
            if overlay is not None:
                return overlay.rows
            return self.rows_as_of(txn.snapshot.ts)
        return self._rows

    @rows.setter
    def rows(self, new_rows: list[tuple]) -> None:
        txn = self._active_txn()
        if txn is not None:
            overlay = txn.stage(self)
            overlay.rows = list(new_rows)
            overlay.append_only = False
            return
        self.manager.commit_single(self, "replace", list(new_rows))

    def latest_rows(self) -> list[tuple]:
        """The latest committed rows, ignoring any ambient transaction.

        Used by the transaction manager (under its lock) for commit-time
        write-set diffs and rebases.
        """
        return self._rows

    def column_image(
        self, rows: list, build: bool
    ) -> "tuple[list, int, list[Sequence]] | None":
        """``(rows, length, columns)``: the columns of the visible list
        ``rows``, or ``None`` when the table keeps none for it.

        Only the latest committed list has an image.  With ``build`` (a
        full scan) a missing one is transposed and a stale one carried
        forward the way a policy posting index is: copy the columns, patch
        the rows ``replaced_positions`` reports, extend the appended ones.
        A shorter list, or one whose every row was replaced (ALTER TABLE
        rewrites them all, maybe to another width), is transposed afresh.
        Without ``build`` (an id fetch) only an image of ``rows`` as they
        are is returned.  Images are never mutated, so readers share them.
        """
        image, length = self._image, len(rows)
        if image is not None and image[0] is rows and image[1] == length:
            return image
        if not build or not length or rows is not self._rows:
            return None
        changed = image and replaced_positions(image[0], image[1], rows)
        if changed is None or len(changed := list(changed)) == image[1]:
            columns = list(zip(*rows[:length]))
        else:
            columns = [list(column) for column in image[2]]
            for position in changed:
                for column, value in zip(columns, rows[position]):
                    column[position] = value
            for column, values in zip(columns, zip(*rows[image[1] : length])):
                column.extend(values)
        self._image = image = (rows, length, columns)
        return image

    @property
    def name(self) -> str:
        """The table name."""
        return self._schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    # -- snapshot history -----------------------------------------------------

    def rows_as_of(self, ts: int) -> list[tuple]:
        """The committed rows a snapshot pinned at ``ts`` reads: the list
        the latest commit at or before ``ts`` left.

        Defined for pinned timestamps, whose entries pruning keeps.  A list
        later appends extended in place is cut to its entry's length once,
        so every snapshot between two commits reads one list object.  The
        latest list is read before the timestamp: a commit publishes its
        history entry and timestamp before its list.
        """
        rows = self._rows
        if ts >= self._last_commit_ts:
            return rows
        for entry in reversed(self._history):
            if entry[0] <= ts:
                break
        rows, length = entry[1], entry[2]
        if len(rows) > length:
            entry[1] = rows = rows[:length]
        return rows

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

    def prune_history(self, pinned: "Collection[int]") -> None:
        """Drop what no snapshot pinned at a timestamp in ``pinned`` reads.

        Of the row history the last entry stays, and any other only if a
        pinned timestamp falls in ``[its ts, the next entry's ts)``; write
        sets and schemas at or before the oldest pin go.  One entry per
        pinned timestamp, not every entry since the oldest pin: a delta
        commit copies the row list, so a long pin would otherwise hold a
        full list per commit.
        """
        horizon = min(pinned, default=float("inf"))
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
        history = self._history
        if len(history) > 1:
            self._history = [
                entry
                for entry, later in zip(history, history[1:])
                if any(entry[0] <= ts < later[0] for ts in pinned)
            ] + [history[-1]]

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
        """Apply an append-only commit at timestamp ``ts``: the latest list
        grows in place."""
        self._last_commit_ts = ts  # before the list grows, as in _committed
        self._rows.extend(rows)
        self._committed(self._rows, ts, written)

    def apply_committed_delta(
        self,
        updates: "list[tuple[int, tuple]]",
        deletes: list[int],
        inserts: list[tuple],
        ts: int,
        written: "frozenset | None" = None,
    ) -> None:
        """Apply a row delta at timestamp ``ts``.

        ``updates`` pairs a position in the latest committed rows with the
        row replacing it, ``deletes`` lists positions, ``inserts`` are
        appended.  The rows go into a new list (a reader may hold the old
        one), and untouched tuples stay the same objects — a structure
        following the rows tells a written row by identity.
        """
        rows = list(self._rows)
        for position, row in updates:
            rows[position] = row
        if deletes:
            rows = _without(rows, deletes)
        rows.extend(inserts)
        self._committed(rows, ts, written)

    def apply_committed_replace(
        self, rows: list[tuple], ts: int, written: "frozenset | None" = None
    ) -> None:
        """Apply a whole-list replacement commit at timestamp ``ts``."""
        self._committed(list(rows), ts, written)

    def _committed(self, rows: list, ts: int, written: "frozenset | None") -> None:
        """Record ``rows`` as the list the commit at ``ts`` left and make it
        the latest.  History and timestamp come before the list: a snapshot
        older than ``ts`` must already read its own entry when it appears."""
        self._history.append([ts, rows, len(rows)])
        self._write_log.append((ts, written))
        self._last_commit_ts = ts
        self._rows = rows

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
        """Insert one row (see :meth:`append_rows`)."""
        self.append_rows([values], columns)

    def append_rows(
        self, rows: Iterable[Iterable[object]], columns: tuple[str, ...] = ()
    ) -> int:
        """Insert many rows as *one* commit (or one staged write).

        When ``columns`` is given, missing columns get their declared
        default (or NULL); otherwise each row must cover the full schema in
        order.  Every row is coerced and NOT NULL-checked up front, then
        storage changes atomically — either all rows land (one commit, so
        one index or posting-index pass over them) or, on a bad row, none
        do.  Returns the inserted count.
        """
        coerced = [self._coerce_insert(row, columns) for row in rows]
        if coerced:
            txn = self._active_txn()
            if txn is not None:
                txn.stage(self).rows.extend(coerced)
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
        """Append a column, filling existing rows with its default."""
        fill = column.default
        with self.manager.statement_transaction() as txn:
            self._stage_schema_change(
                txn,
                self.schema.with_column(column),
                lambda row: (*row, fill),
                {"op": "add_column", "table": self.name, "column": column},
            )

    def drop_column(self, name: str) -> None:
        """Drop a column and rewrite stored rows."""
        with self.manager.statement_transaction() as txn:
            index = self.schema.column_index(name)
            self._stage_schema_change(
                txn,
                self.schema.without_column(name),
                lambda row: row[:index] + row[index + 1 :],
                {"op": "drop_column", "table": self.name, "column": name},
            )

    def _stage_schema_change(
        self,
        txn: Transaction,
        new_schema: TableSchema,
        rewrite: Callable[[tuple], tuple],
        ddl: dict,
    ) -> None:
        """Stage an ALTER TABLE in ``txn``.

        ALTER TABLE is a versioned commit, not a barrier: the new schema and
        the rewritten rows are visible only to ``txn`` until it commits
        (first-committer-wins on the table's ``schema`` catalog entry), and
        then land at one timestamp — pinned snapshots keep seeing the old
        rows under the old schema.  Outside a transaction the statement is
        its own (:meth:`TransactionManager.statement_transaction`).
        """
        overlay = txn.stage(self)
        overlay.rows = [rewrite(row) for row in overlay.rows]
        overlay.append_only = False
        txn._staged_schemas[self.name.lower()] = new_schema
        txn.add_catalog_op(CatalogOp("schema", self.name.lower(), ddl))

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
