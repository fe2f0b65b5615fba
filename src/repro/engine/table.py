"""Row storage with a short history of committed row lists (MVCC).

A :class:`Table` stores rows as Python tuples in insertion order.  Schema
evolution (ALTER TABLE) rewrites stored rows, which is what the paper's
framework-configuration step does when it appends the ``policy`` column to
every target-DB table (Section 5.1).

A write names its rows: :meth:`Table.update_rows` and
:meth:`Table.delete_rows` hand the positions they chose, with the new
rows, to the write as one delta ``(updates, deletes, inserts)`` over the
list they read — a transaction's overlay folds it in, an autocommit
commits it as it stands — so no commit ever diffs two row lists.  The
:attr:`Table.rows` setter is what it says: a replacement of every row
(its write set the keys before and after).  A committed row list is only
ever mutated by appending — an update, a delete, a replacement and every
staged rewrite build a new list — so the pair (row list object, length)
names exactly one committed or staged state.  A table keeps (DESIGN.md
§15):

* ``_rows`` — the latest committed row list.  Readers outside any
  transaction, and snapshots no later than its commit, hit it directly.
* ``_history`` — ``[commit ts, row list, length]`` entries, ascending: the
  pair each commit left.  A pinned snapshot at ts reads the newest entry
  no later than ts, cut to its length once if later appends extended the
  list in place; an append never extends a list a pinned reader took.
  Pruning keeps the last entry and any entry a pinned snapshot still
  reads, so the history is one entry when nothing is pinned and one per
  pinned timestamp under pins.

A committed write arrives as one of three effects (:meth:`Table
.apply_committed`): an append, a row delta (updated and deleted
positions plus inserted rows) or a whole-list replacement.  Untouched
tuples stay the same objects.

The *schema* history is the catalog's (DESIGN.md §15): ALTER TABLE
commits the rewritten rows at one timestamp and the new schema at one
catalog version, and the table keeps only the latest schema and the
version it was committed at.  A snapshot pinned before that version reads
its schema from the catalog entry it sees — an old snapshot sees
old-width rows *and* the old schema.  Each committed
write also records its primary-key **write set** in ``_write_log`` so the
transaction manager can validate first-committer-wins at row granularity
(:meth:`written_since`).

The :attr:`rows` and :attr:`schema` properties consult the context's
active transaction (:mod:`repro.engine.mvcc`): inside a transaction they
serve the staged overlay/schema or the snapshot's row list.  Everything
derived from the rows (the column image, index entries and the policy
posting index) is valid for exactly the (list, length) pair it was built
from, so no staged or future state can leak into another snapshot's
reads; each is carried to another list by :meth:`~Table.replaced_positions`.
The latest commit keeps a record of its step — the list a delta without
deletes was applied to (or an append had to copy), that list's length,
the positions it replaced and the list it left — so state one commit
behind follows in work proportional to the written rows; any other pair
takes the one identity pass left, which serves this derived state only.

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
from .mvcc import _ACTIVE, Transaction, TransactionManager, apply_delta
from .schema import Column, TableSchema
from .types import coerce_value


def _identity_pass(old: list, length: int, rows: list):
    """The positions below ``length`` where ``rows`` holds another tuple
    object than ``old``: one pass at C speed."""
    return compress(range(length), map(is_not, old, rows))


def _matching(rows: list, predicate, candidates) -> list[int]:
    """The ascending positions of ``rows`` — among ``candidates`` when given
    — whose row satisfies ``predicate``.  Only the rows present when it is
    called are visited, even if an append extends ``rows`` meanwhile."""
    if candidates is None:
        return list(compress(range(len(rows)), map(predicate, rows)))
    return [position for position in candidates if predicate(rows[position])]


class Table:
    """A heap table: a schema, a row list and the row lists snapshots pin."""

    def __init__(self, schema: TableSchema):
        self._schema = schema
        #: Catalog versions of this table's CREATE and of its latest schema
        #: commit; a reader pinned before the latter asks the catalog.
        self._created_version = self._schema_version = 0
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
        #: The latest commit's step ``(list, its length, replaced positions,
        #: the list it left)``, or None after a delete or a replacement.
        self._step: "tuple[list, int, Sequence[int], list] | None" = None

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
            key = self.name.lower()
            database.tables[key] = self
            self.attach_manager(database.transactions)
            self._created_version = self._schema_version = database.catalog.commit(
                [("table", key, self._schema)]
            )
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
        ALTER TABLE if any, otherwise the schema as of the snapshot's
        catalog version.  Outside: the latest committed schema.
        """
        txn = self._active_txn()
        if txn is not None:
            staged = txn.staged_schema(self)
            if staged is not None:
                return staged
            version = self._manager.visible_catalog_version()
            if version < self._schema_version:
                return self._schema_at(version)
        return self._schema

    def _schema_at(self, version: int) -> TableSchema:
        """This table's schema as of catalog ``version``: its newest ALTER
        at or before it, else its CREATE's schema — never that of an
        earlier table of the same name."""
        catalog, key = self._manager.catalog, self.name.lower()
        altered = catalog.entry_at("schema", key, version)
        if altered is not None and altered.version > self._created_version:
            return altered.value
        return catalog.value_at("table", key, self._created_version)

    def commit_schema(self, schema: TableSchema, version: int) -> None:
        """Make ``schema``, committed at catalog ``version``, the latest.
        The version moves first: from then on a reader pinned before it
        asks the catalog, which already holds the entry."""
        self._schema_version = version
        self._schema = schema

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
            txn._read.add(self)  # before the clock is read: see apply_committed_append
            return self.rows_as_of(txn.snapshot.ts)
        return self._rows

    @rows.setter
    def rows(self, new_rows: list[tuple]) -> None:
        # Replaces every visible row; listed, as the write reads it twice.
        with self.manager.autocommit_exclusive():
            self._write([], list(range(len(self.rows))), list(new_rows))

    def _write(self, updates, deletes, inserts, durable: bool = True) -> None:
        """Hand a delta addressed to the visible rows to the write: the
        transaction's overlay, or one autocommit (whose caller read the rows
        under the fence it still holds)."""
        txn = self._active_txn()
        if txn is not None:
            txn.stage(self).write(updates, deletes, inserts)
        else:
            self.manager.commit_single(self, (updates, deletes, inserts), durable)

    def latest_rows(self) -> list[tuple]:
        """The latest committed rows, ignoring any ambient transaction.

        Used by the transaction manager (under its lock) to plan and rebase
        commits.
        """
        return self._rows

    def replaced_positions(
        self, old: list, length: int, rows: list, fallback: bool = True
    ):
        """The positions below ``length`` where ``rows`` holds another tuple
        object than ``old``, or ``None`` when ``rows`` is shorter than
        ``length`` (a row was deleted: whatever was derived from
        ``old[:length]`` must be rebuilt) — or, without ``fallback``, when
        only the identity pass could tell.

        A commit keeps every untouched tuple the very same object.  When
        ``(old, length)`` is where the latest commit stepped from and
        ``rows`` where it left, that commit's record answers (its written
        positions); any other pair — several commits behind, a pinned
        snapshot's list, an overlay — takes one C-speed identity pass.
        """
        if len(rows) < length:
            return None
        if rows is old:
            return ()
        step = self._step
        if step and step[0] is old and step[1] == length and step[3] is rows:
            return step[2]
        return _identity_pass(old, length, rows) if fallback else None

    def column_image(
        self, rows: list, build: bool
    ) -> "tuple[list, int, list[Sequence]] | None":
        """``(rows, length, columns)``: the columns of the visible list
        ``rows``, or ``None`` when the table keeps none for it.

        Only the latest committed list has an image.  A stale one is carried
        forward the way a policy posting index is: the columns holding
        another value object at a position :meth:`replaced_positions`
        reports are copied and patched, the others shared, and appended
        rows extend copies.  Any fetch carries when the latest commit's
        record answers; with ``build`` (a full scan, an id fetch of more
        than a page) a missing image is transposed and any stale one
        carried.  A shorter list, or one whose every row was replaced
        (ALTER TABLE rewrites them all, maybe to another width), is
        transposed afresh.  Images are never mutated, so readers share them.
        """
        image, length = self._image, len(rows)
        if image is not None and image[0] is rows and image[1] == length:
            return image
        if not length or rows is not self._rows:
            return None
        changed = image and self.replaced_positions(image[0], image[1], rows, build)
        if changed is None or len(changed := list(changed)) == image[1]:
            if not build:
                return None
            columns = list(zip(*rows[:length]))
        else:
            appended = rows[image[1] : length]
            columns = []
            for c, column in enumerate(image[2]):
                values = [rows[position][c] for position in changed]
                before = map(column.__getitem__, changed)
                if appended or any(map(is_not, values, before)):
                    column = list(column)
                    for position, value in zip(changed, values):
                        column[position] = value
                    column.extend(row[c] for row in appended)
                columns.append(column)
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
        later appends extended, or may be extending, is cut to its entry's
        length once, so every snapshot between two commits reads one list
        object that never grows.  The latest list is read before the
        timestamp: a commit publishes its history entry and timestamp first.
        """
        rows = self._rows
        if ts >= self._last_commit_ts:
            return rows
        for entry in reversed(self._history):
            if entry[0] <= ts:
                break
        rows, length = entry[1], entry[2]
        if rows is self._rows or len(rows) > length:  # a list once replaced never grows
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
        sets at or before the oldest pin go.  One entry per
        pinned timestamp, not every entry since the oldest pin: a delta
        commit copies the row list, so a long pin would otherwise hold a
        full list per commit.
        """
        horizon = min(pinned, default=float("inf"))
        if self._write_log and self._write_log[0][0] <= horizon:
            self._write_log = [
                entry for entry in self._write_log if entry[0] > horizon
            ]
        history = self._history
        if len(history) > 1:
            self._history = [
                entry
                for entry, later in zip(history, history[1:])
                if any(entry[0] <= ts < later[0] for ts in pinned)
            ] + [history[-1]]

    # -- commit application (called by the transaction manager) ---------------

    def apply_committed(
        self, op: str, payload, ts: int, written: "frozenset | None" = None, pins=()
    ) -> None:
        """Apply one committed effect — what a WAL record carries per table:
        ``"append"`` (rows, :meth:`apply_committed_append`), ``"delta"``
        (``(updates, deletes, inserts)``, positions in the latest rows) or
        ``"replace"`` (the whole row list).  A delta or a replacement goes
        into a new list (a reader may hold the old one); a delta keeps the
        untouched tuples the same objects, so a structure following the
        rows tells a written row by identity.  ``pins`` are the active
        transactions other than the committing one."""
        if op == "append":
            self.apply_committed_append(payload, ts, written, pins)
        elif op == "delta":
            updates, deletes, _ = payload
            replaced = None if deletes else [position for position, _ in updates]
            self._committed(apply_delta(self._rows, payload), ts, written, replaced)
        else:
            self._committed(list(payload), ts, written)

    def apply_committed_append(
        self, rows: list[tuple], ts: int, written: "frozenset | None" = None, pins=()
    ) -> None:
        """Apply an append-only commit at ``ts``: the latest list grows in
        place unless one of ``pins`` no older than its commit read this table.
        The clock moves before that check and a reader marks the table before
        it reads the clock, so a reader not seen here reads a cut entry."""
        last, self._last_commit_ts = self._last_commit_ts, ts
        if any(t.snapshot.ts >= last and self in t._read for t in pins):
            self._committed(self._rows + rows, ts, written, ())
            return
        self._rows.extend(rows)
        self._committed(self._rows, ts, written)

    def _committed(
        self, rows: list, ts: int, written: "frozenset | None", replaced=None
    ) -> None:
        """Record ``rows`` as the list the commit at ``ts`` left and make it
        the latest.  History and timestamp come before the list: a snapshot
        older than ``ts`` must already read its own entry when it appears.
        A new list keeps the commit's step when ``replaced`` names the
        positions it replaced in the latest one (no row deleted); an append
        in place keeps the step before it, which still leads to this list."""
        if rows is not self._rows:
            old = self._rows
            self._step = None if replaced is None else (old, len(old), replaced, rows)
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
        self, rows: Iterable[Iterable[object]], columns: tuple[str, ...] = (), durable: bool = True
    ) -> int:
        """Insert many rows as *one* commit (or one staged write).

        When ``columns`` is given, missing columns get their declared
        default (or NULL); otherwise each row must cover the full schema in
        order.  Every row is coerced and NOT NULL-checked up front, then
        storage changes atomically — either all rows land (one commit, so
        one index or posting-index pass over them) or, on a bad row, none
        do.  Returns the inserted count; ``durable`` as for
        :meth:`~repro.engine.mvcc.TransactionManager._commit_locked`.
        """
        coerced = [self._coerce_insert(row, columns) for row in rows]
        if coerced:
            self._write([], [], coerced, durable)
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

        ``updater`` returns the row to store, already coerced.
        ``candidates`` — ascending row positions, from an index — narrows
        the rows ``predicate`` is evaluated on; ``None`` is every row.  The
        write is the chosen positions with their new rows; outside a
        transaction the rows are read and committed under one hold of the
        write fence, so no other writer's commit lands in between.
        """
        with self.manager.autocommit_exclusive():
            rows = self.rows
            updates = [
                (position, tuple(updater(rows[position])))
                for position in _matching(rows, predicate, candidates)
            ]
            self._write(updates, [], [])
        return len(updates)

    def delete_rows(
        self,
        predicate: Callable[[tuple], bool],
        candidates: "list[int] | None" = None,
    ) -> int:
        """Delete every row matching ``predicate``; return the count
        (``candidates`` and the fence as in :meth:`update_rows`)."""
        with self.manager.autocommit_exclusive():
            deletes = _matching(self.rows, predicate, candidates)
            self._write([], deletes, [])
        return len(deletes)

    def truncate(self) -> None:
        """Remove all rows."""
        self.delete_rows(lambda row: True)

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
        rows = self.rows
        txn.stage(self).write([], list(range(len(rows))), list(map(rewrite, rows)))
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

        return self.update_rows(predicate or (lambda row: True), updater)
