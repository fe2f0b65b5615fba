"""Index lifecycles and lazy maintenance.

:class:`IndexManager` owns every secondary index of one database.  An
index *definition* (name, table, key columns, structure kind) is durable
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
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING

from ...errors import CatalogError, ExecutionError
from .btree import BTreeIndex
from .hash import HashIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database
    from ..table import Table

#: The supported index structure kinds.
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
    index (``structure`` a B-tree or a hash over the definition's
    columns) and a table's policy posting index (a hash over the policy
    column) are both one.  Rows with a NULL in a key column go to
    ``nulls`` (ascending).  ``rows`` is the list described: an append
    commit extends the committed list in place, so it may have grown
    past ``length``.  ``stamp`` moves whenever a row id joins, leaves or
    changes keys.  Following one commit forward costs that commit's
    written rows; following further costs one identity pass.
    """

    __slots__ = (
        "structure", "schema", "positions", "key", "rows", "length", "nulls",
        "stamp",
    )

    def __init__(self, structure, schema, columns, rows: list):
        self.structure, self.schema = structure, schema
        self.positions = [schema.column_index(c) for c in columns]
        #: Row → key: the value for one column, the tuple for several.
        self.key = itemgetter(*self.positions)
        self.rows, self.length, self.nulls = rows, 0, []
        self.stamp = 0
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
        """Insert (or remove) one ``(key, row id)`` pair."""
        if key is None or (len(self.positions) > 1 and None in key):
            if insert:
                insort(self.nulls, row_id)
            else:
                del self.nulls[bisect_left(self.nulls, row_id)]
        elif insert:
            self.structure.insert(key, row_id)
        else:
            self.structure.remove(key, row_id)

    def _extend(self, end: int) -> None:
        """Index ``rows[length:end]`` (ids past every indexed one)."""
        insert, nulls = self.structure.insert, self.nulls
        single = len(self.positions) == 1
        keys = map(self.key, islice(self.rows, self.length, end))
        for row_id, value in enumerate(keys, self.length):
            if value is None or (not single and None in value):
                nulls.append(row_id)
            else:
                insert(value, row_id)
        self.length = end


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
        structure = BTreeIndex() if definition.kind == "btree" else HashIndex()
        entry = RowIndex(structure, schema, definition.columns, rows)
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
            return self._entry(definition, costs).structure.search(key)

    def lookup_prefix(self, name: str, prefix: tuple, costs=None) -> list[int]:
        """Row ids (ascending) whose leading key columns equal ``prefix``.

        A prefix covering every key column is an equality probe (either
        structure); a shorter one walks the leaves of a B-tree.
        """
        definition = self.get(name)
        if len(prefix) == len(definition.columns):
            return self.lookup_equal(
                name, prefix[0] if len(prefix) == 1 else prefix, costs
            )
        self._require_btree(definition, "prefix")
        with self._lock:
            self._database.cost_total.charge(costs, "index.hit")
            entry = self._entry(definition, costs)
            found = entry.structure.prefix(prefix)
            if entry.nulls:
                # A NULL in a later key column keeps a row out of the tree,
                # not out of the prefix's matches.
                rows, width = entry.rows, len(prefix)
                found = sorted(found + [
                    row_id for row_id in entry.nulls
                    if entry.key(rows[row_id])[:width] == prefix
                ])
            return found

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
        """Row ids (ascending) inside the bound pair on B-tree index ``name``."""
        definition = self.get(name)
        self._require_btree(definition, "range")
        with self._lock:
            self._database.cost_total.charge(costs, "index.hit")
            return self._entry(definition, costs).structure.range(
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
                info["distinct_keys"] = len(built[1].structure)
            out.append(info)
        return out

    def __len__(self) -> int:
        return len(self.definitions())
