"""Index lifecycles and lazy maintenance.

:class:`IndexManager` owns every secondary index of one database.  An
index *definition* (name, table, key columns, kind) is durable
catalog state — committed to the versioned catalog by ``CREATE INDEX`` /
``DROP INDEX``, read as of the reader's visible catalog version and
persisted by :mod:`repro.engine.persist`.  The built *entry* is a
:class:`RowIndex` — the structure a table's policy posting index is
too — valid for exactly the
row list object and length it describes (``repro.engine.table`` says why
that pair names one state):

* a lookup whose visible row list is that list at that length is a plain
  probe;
* any other list (a commit, a policy change, a snapshot reading an older
  state, a staged overlay) is **followed** instead of rebuilt:
  ``Table.replaced_positions`` names the replaced rows — the latest
  commit's own record when the entry is one commit behind, one identity
  pass otherwise — whose ids move from their old key to their new one,
  and appended rows are inserted.  A shorter list (a delete) or another
  schema object (ALTER TABLE) rebuilds from scratch;
* a dropped-and-recreated index or table never serves stale row ids.

Entries are mutated in place when followed, so every lookup validates and
probes under the manager lock.  A lookup charges ``index.*`` events to
the calling execution's cost ledger; ``stats()`` reads the total they
fold into.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING

from ...errors import CatalogError, ExecutionError, TypeMismatchError
from ..types import compare_guard

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database
    from ..table import Table

#: The index kinds CREATE INDEX accepts.  One structure serves both; the
#: kind says which lookups the planner may ask of it (a ``hash`` index
#: answers equality only).
INDEX_KINDS = ("btree", "hash")


@dataclass(frozen=True)
class IndexDefinition:
    """Catalog state of one secondary index (all identifiers lower-cased)."""

    name: str
    table: str
    columns: tuple[str, ...]
    kind: str = "btree"

    def to_dict(self) -> dict:
        """JSON-ready form (what snapshots persist)."""
        return {
            "name": self.name,
            "table": self.table,
            "columns": list(self.columns),
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexDefinition":
        """Inverse of :meth:`to_dict`.  Other keys are ignored: a WAL
        record from when an index could also group its rows by policy
        names that column too, and loads as a plain index."""
        return cls(
            name=str(payload["name"]),
            table=str(payload["table"]),
            columns=tuple(str(c) for c in payload["columns"]),
            kind=str(payload.get("kind") or "btree"),
        )


class RowIndex:
    """Key → ascending row ids over ``rows[:length]``.

    The one structure derived from a table's rows by key: a secondary
    index over its definition's columns and a table's policy posting
    index over the policy column are both one.  ``postings`` maps each
    non-NULL key to its ascending row ids; rows with a NULL in a key
    column go to ``nulls`` (ascending).  Equality is a dict probe; a
    range or a composite prefix bisects the sorted distinct keys, built
    by one ``sorted`` call on the first such lookup and dropped whenever
    a key joins or leaves — so an index nobody scans never sorts.

    ``rows`` is the list described: an append commit extends the
    committed list in place, so it may have grown past ``length``.
    ``stamp`` moves whenever a row id joins, leaves or changes keys.
    Following one commit forward costs that commit's written rows;
    following further costs one identity pass.
    """

    __slots__ = (
        "schema", "positions", "key", "rows", "length", "postings", "nulls",
        "stamp", "_sorted",
    )

    def __init__(self, schema, columns, rows: list):
        self.schema = schema
        self.positions = [schema.column_index(c) for c in columns]
        #: Row → key: the value for one column, the tuple for several.
        self.key = itemgetter(*self.positions)
        self.rows, self.length = rows, 0
        self.postings: dict = {}
        self.nulls: list[int] = []
        self.stamp = 0
        self._sorted: tuple[list, list] | None = None
        self._extend(len(rows))

    def describes(self, rows: list) -> bool:
        """Whether the index is exact for ``rows`` as it is."""
        return self.rows is rows and self.length == len(rows)

    def follow(self, table: "Table", rows: list) -> bool:
        """Make the index describe ``rows`` of ``table``; ``False`` when
        only a rebuild can (``rows`` is shorter: some row was deleted)."""
        old, length, key = self.rows, self.length, self.key
        changed = table.replaced_positions(old, length, rows)
        if changed is None:
            return False
        moved = False
        for row_id in changed:
            before, after = key(old[row_id]), key(rows[row_id])
            if before != after:
                self._place(before, row_id, False)
                self._place(after, row_id, True)
                moved = True
        self.rows = rows
        # Read once: an append commit extends the committed list in place,
        # and rows past this length are indexed by the next follow.
        end = len(rows)
        if moved or end > length:
            self._extend(end)
            self.stamp += 1
        return True

    def _place(self, key, row_id: int, insert: bool) -> None:
        """Insert (or remove) one ``(key, row id)`` pair; a key joins with
        its first id and leaves with its last."""
        postings = self.postings
        if key is None or (len(self.positions) > 1 and None in key):
            ids = self.nulls
        else:
            ids = postings.get(key)
            if ids is None:
                ids = postings[key] = []
                self._sorted = None
        if insert:
            insort(ids, row_id)
            return
        del ids[bisect_left(ids, row_id)]
        if not ids and ids is not self.nulls:
            del postings[key]
            self._sorted = None

    def _extend(self, end: int) -> None:
        """Index ``rows[length:end]``: their ids follow every indexed one,
        so each is appended to its key's list."""
        postings, nulls = self.postings, self.nulls
        distinct = len(postings)
        single = len(self.positions) == 1
        keys = map(self.key, islice(self.rows, self.length, end))
        for row_id, value in enumerate(keys, self.length):
            if value is None or (not single and None in value):
                nulls.append(row_id)
            elif value in postings:
                postings[value].append(row_id)
            else:
                postings[value] = [row_id]
        if len(postings) != distinct:
            self._sorted = None
        self.length = end

    # -- lookups ---------------------------------------------------------------

    def _comparable(self, values) -> None:
        """Decline a probe whose non-NULL ``values`` cannot be compared
        with the matching components of a held key: ``TypeError`` is the
        executor's cue to read every row and let the recheck decide, so
        the statement raises (or not) exactly as it would without the
        index."""
        held = next(iter(self.postings), None)
        if held is None:
            return
        try:
            for value, component in zip(
                values, held if len(self.positions) > 1 else (held,)
            ):
                if value is not None:
                    compare_guard(value, component)
        except TypeMismatchError as error:
            raise TypeError(str(error)) from None

    def _ordered(self) -> tuple[list, list]:
        """``(keys, lists)``: the distinct keys ascending (sorted on first
        use) and each one's posting list — the very list ``postings``
        holds, so a moved id shows in both."""
        if self._sorted is None:
            keys = sorted(self.postings)
            self._sorted = (keys, list(map(self.postings.__getitem__, keys)))
        return self._sorted

    def search(self, key) -> list[int]:
        """Row ids (ascending) whose key equals ``key``: the column value
        for a single-column index, the tuple for a composite one."""
        self._comparable(key if len(self.positions) > 1 else (key,))
        return list(self.postings.get(key, ()))

    def prefix(self, prefix: tuple) -> list[int]:
        """Row ids (ascending) whose composite key starts with ``prefix``.

        The matching keys are one run of the sorted keys; a row with a
        NULL in a later key column still matches."""
        self._comparable(prefix)
        (keys, lists), width = self._ordered(), len(prefix)
        cut = itemgetter(slice(0, width))
        low = bisect_left(keys, prefix, key=cut)
        high = bisect_right(keys, prefix, low, key=cut)
        found = sorted(chain.from_iterable(lists[low:high]))
        if self.nulls:
            rows = self.rows
            found = sorted(found + [
                row_id for row_id in self.nulls
                if self.key(rows[row_id])[:width] == prefix
            ])
        return found

    def range(
        self,
        lower=None,
        upper=None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> list[int]:
        """Row ids (ascending) whose key falls inside the bound pair.

        ``None`` bounds are open; the result is sorted by *row id*, not key,
        so an index-range scan emits rows in the same storage order a
        sequential scan plus filter would.
        """
        composite = len(self.positions) > 1
        for bound in (lower, upper):
            if bound is not None:
                self._comparable(bound if composite else (bound,))
        keys, lists = self._ordered()
        low = 0 if lower is None else (
            bisect_left if lower_inclusive else bisect_right
        )(keys, lower)
        high = len(keys) if upper is None else (
            bisect_right if upper_inclusive else bisect_left
        )(keys, upper)
        return sorted(chain.from_iterable(lists[low:high]))


class IndexManager:
    """Per-database index resolution and build cache."""

    def __init__(self, database: "Database"):
        self._database = database
        self._lock = threading.RLock()
        #: name → (the definition built for, its entry).
        self._entries: dict[str, tuple[IndexDefinition, RowIndex]] = {}

    # -- catalog ---------------------------------------------------------------

    def normalize(self, definition: IndexDefinition) -> IndexDefinition:
        """Lower-case and validate ``definition``.

        CREATE INDEX validates at statement time with this; the catalog
        entry is committed only when the transaction commits
        (first-committer-wins on the catalog entry).
        """
        normalized = IndexDefinition(
            name=definition.name.lower(),
            table=definition.table.lower(),
            columns=tuple(c.lower() for c in definition.columns),
            kind=definition.kind.lower(),
        )
        if normalized.kind not in INDEX_KINDS:
            raise CatalogError(
                f"unknown index kind {normalized.kind!r} "
                f"(expected one of {INDEX_KINDS})"
            )
        if not normalized.columns:
            raise CatalogError(f"index {normalized.name!r} has no key columns")
        table = self._database.table(normalized.table)
        for column in normalized.columns:
            table.schema.column_index(column)  # raises on unknown columns
        return normalized

    def discard(self, name: str) -> None:
        """Forget the built entry of ``name`` (its catalog entry moved)."""
        with self._lock:
            self._entries.pop(name, None)

    def get(self, name: str) -> IndexDefinition:
        """The definition named ``name``; unknown names raise.

        Resolved *as of* the visible catalog version: an index created
        after a snapshot began is invisible to it, and one dropped after it
        began is still there — pinned plans keep their access path no
        matter what DDL commits around them.
        """
        definition = self.find(name)
        if definition is None:
            raise CatalogError(f"unknown index {name!r}")
        return definition

    def find(self, name: str) -> IndexDefinition | None:
        database = self._database
        return database.catalog.value_at(
            "index", name, database.transactions.visible_catalog_version()
        )

    def definitions(self) -> list[IndexDefinition]:
        """Every definition visible at the visible version, sorted by name."""
        database = self._database
        visible = database.catalog.values_at(
            "index", database.transactions.visible_catalog_version()
        )
        return [visible[name] for name in sorted(visible)]

    def for_table(self, table_name: str) -> list[IndexDefinition]:
        """Every definition on one table, sorted by name."""
        key = table_name.lower()
        return [d for d in self.definitions() if d.table == key]

    # -- build cache -----------------------------------------------------------

    def _entry(self, definition: IndexDefinition, costs) -> RowIndex:
        """The entry for ``definition``, exact for the visible rows.

        Callers hold the manager lock until they are done probing: a
        concurrent lookup at another snapshot may follow the entry to
        other rows (move ids in the structure) at any time.
        """
        table = self._database.table(definition.table)
        rows, schema = table.rows, table.schema
        built, entry = self._entries.get(definition.name, (None, None))
        if built == definition and entry.schema is schema:
            if entry.describes(rows):
                return entry
            if entry.follow(table, rows):
                self._database.cost_total.charge(costs, "index.carried_forward")
                return entry
        entry = RowIndex(schema, definition.columns, rows)
        self._entries[definition.name] = (definition, entry)
        self._database.cost_total.charge(costs, "index.rebuild")
        return entry

    def build(self, name: str) -> None:
        """Build (or revalidate) index ``name`` now, not at its first probe."""
        definition = self.get(name)
        with self._lock:
            self._entry(definition, None)

    # -- lookups ---------------------------------------------------------------

    def lookup_equal(self, name: str, key, costs=None) -> list[int]:
        """Row ids (ascending) matching ``key`` on index ``name``.

        ``key`` is the column value for a single-column index and the tuple
        of column values for a composite one.
        """
        definition = self.get(name)
        with self._lock:
            self._database.cost_total.charge(costs, "index.hit")
            return self._entry(definition, costs).search(key)

    def lookup_prefix(self, name: str, prefix: tuple, costs=None) -> list[int]:
        """Row ids (ascending) whose leading key columns equal ``prefix``.

        A prefix covering every key column is an equality probe (either
        kind); a shorter one needs a ``btree`` index.
        """
        definition = self.get(name)
        if len(prefix) == len(definition.columns):
            return self.lookup_equal(
                name, prefix[0] if len(prefix) == 1 else prefix, costs
            )
        self._require_btree(definition, "prefix")
        with self._lock:
            self._database.cost_total.charge(costs, "index.hit")
            return self._entry(definition, costs).prefix(prefix)

    def null_key_rows(self, name: str, costs=None) -> list[int]:
        """Ids (ascending) of the rows with a NULL in a key column of
        ``name`` — rows no probe returns, although a statement that counts
        predicate evaluations still has to look at them."""
        definition = self.get(name)
        with self._lock:
            return list(self._entry(definition, costs).nulls)

    def lookup_range(
        self,
        name: str,
        lower=None,
        upper=None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
        costs=None,
    ) -> list[int]:
        """Row ids (ascending) inside the bound pair on ``btree`` index
        ``name``."""
        definition = self.get(name)
        self._require_btree(definition, "range")
        with self._lock:
            self._database.cost_total.charge(costs, "index.hit")
            return self._entry(definition, costs).range(
                lower, upper, lower_inclusive, upper_inclusive
            )

    @staticmethod
    def _require_btree(definition: IndexDefinition, access: str) -> None:
        if definition.kind != "btree":
            raise ExecutionError(
                f"index {definition.name!r} ({definition.kind}) does not "
                f"support {access} lookups"
            )

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Monotonic lookup/rebuild/carry-forward totals plus catalog
        sizes."""
        total = self._database.cost_total
        definitions = len(self)
        with self._lock:
            return {
                "definitions": definitions,
                "built": len(self._entries),
                "hits": total["index.hit"],
                "rebuilds": total["index.rebuild"],
                "carried_forward": total["index.carried_forward"],
            }

    def describe(self) -> list[dict]:
        """Catalog listing for the server's stats endpoint."""
        out = []
        for definition in self.definitions():
            with self._lock:
                built = self._entries.get(definition.name)
            info = definition.to_dict()
            info["built"] = built is not None
            if built is not None:
                info["rows"] = built[1].length
                info["distinct_keys"] = len(built[1].postings)
            out.append(info)
        return out

    def __len__(self) -> int:
        return len(self.definitions())
