"""Index lifecycles and lazy maintenance.

:class:`IndexManager` owns every secondary index of one database.  An
index *definition* (name, table, key columns, structure kind) is durable
catalog state — it survives DML, is persisted by
:mod:`repro.engine.persist` and round-trips through ``CREATE INDEX`` /
``DROP INDEX``.  The built *entry* (the B+-tree / hash structure) is a
cache that remembers the row list it describes:

* a lookup at the ``Table.version`` the entry was last validated for is a
  plain probe;
* at any other version (a commit, a policy change, a snapshot reading an
  older state, a staged overlay) the entry is **revalidated** against the
  visible row list instead of rebuilt.  The structure maps key → row
  position, so it is exact for another list iff every position up to the
  built length holds either the very same tuple object (``update_rows``
  and ``rows_as_of`` reuse unchanged tuples) or a tuple with the same key
  values; rows appended past the built length are inserted.  Anything
  else — a delete, a key-changing update, a schema change — rebuilds from
  scratch;
* a dropped-and-recreated index or table never serves stale row ids.

Entries are mutated in place when carried forward, so every lookup
validates and probes under the manager lock.
A lookup charges ``index.*`` events to the calling execution's cost
ledger; ``stats()`` reads the total they fold into.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...errors import CatalogError, ExecutionError
from ..mvcc import current_transaction
from ..table import replaced_positions
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
        """Inverse of :meth:`to_dict`.  Other keys are ignored: a snapshot
        or WAL record from when an index could also group its rows by
        policy names that column too, and loads as a plain index."""
        return cls(
            name=str(payload["name"]),
            table=str(payload["table"]),
            columns=tuple(str(c) for c in payload["columns"]),
            kind=str(payload.get("kind") or "btree"),
        )


class _IndexEntry:
    """A built index structure.

    ``rows`` is the row list the entry was last validated against and
    ``length`` how many of its rows are indexed: append commits extend the
    committed list *in place*, so the retained list may have grown since.
    """

    __slots__ = (
        "definition", "schema", "structure", "version", "rows", "length",
        "nulls",
    )

    def __init__(self, definition: IndexDefinition, schema):
        self.definition = definition
        self.schema = schema
        self.structure = (
            BTreeIndex() if definition.kind == "btree" else HashIndex()
        )
        self.version: object = None
        self.rows: list = []
        self.length = 0
        #: Ascending ids of the rows the structure cannot hold: a NULL in
        #: some key column.
        self.nulls: list[int] = []

    def positions(self) -> list[int]:
        """Schema positions of the key columns."""
        return [self.schema.column_index(c) for c in self.definition.columns]

    def extend(self, rows: list) -> None:
        """Index ``rows[self.length:]`` and adopt ``rows`` as the row list."""
        positions = self.positions()
        single = len(positions) == 1
        insert = self.structure.insert
        for row_id in range(self.length, len(rows)):
            row = rows[row_id]
            key = tuple(row[p] for p in positions)
            if None not in key:
                insert(key[0] if single else key, row_id)
            else:
                self.nulls.append(row_id)
        self.rows = rows
        self.length = len(rows)

    def carry_forward(self, rows: list) -> bool:
        """Make the entry describe ``rows`` if that needs no rebuild."""
        old = self.rows
        changed = replaced_positions(old, self.length, rows)
        if changed is None:
            return False
        positions = self.positions()
        for row_id in changed:
            before, after = old[row_id], rows[row_id]
            if any(before[p] != after[p] for p in positions):
                return False
        self.extend(rows)
        return True


class IndexManager:
    """Per-database index catalog and build cache."""

    def __init__(self, database: "Database"):
        self._database = database
        self._lock = threading.RLock()
        self._definitions: dict[str, IndexDefinition] = {}
        self._entries: dict[str, _IndexEntry] = {}

    # -- catalog ---------------------------------------------------------------

    def create(self, definition: IndexDefinition) -> IndexDefinition:
        """Validate and register ``definition`` (build happens lazily)."""
        return self.register(self.normalize(definition))

    def normalize(self, definition: IndexDefinition) -> IndexDefinition:
        """Lower-case and validate ``definition`` without registering it.

        Transactional CREATE INDEX validates at statement time with this,
        then registers via :meth:`register` only when the transaction
        commits (first-committer-wins on the catalog entry).
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

    def register(self, normalized: IndexDefinition) -> IndexDefinition:
        """Register an already-normalized definition (duplicate names raise)."""
        with self._lock:
            if normalized.name in self._definitions:
                raise CatalogError(f"index {normalized.name!r} already exists")
            self._definitions[normalized.name] = normalized
        return normalized

    def drop(self, name: str) -> IndexDefinition:
        """Drop one index; unknown names raise :class:`CatalogError`."""
        key = name.lower()
        with self._lock:
            if key not in self._definitions:
                raise CatalogError(f"unknown index {name!r}")
            self._entries.pop(key, None)
            return self._definitions.pop(key)

    def drop_for_table(self, table_name: str) -> list[IndexDefinition]:
        """Drop every index of one table (DROP TABLE cleanup)."""
        key = table_name.lower()
        with self._lock:
            doomed = [d for d in self._definitions.values() if d.table == key]
            for definition in doomed:
                self._definitions.pop(definition.name, None)
                self._entries.pop(definition.name, None)
        return doomed

    def get(self, name: str) -> IndexDefinition:
        """The definition named ``name``; unknown names raise.

        Resolved *as of* the ambient transaction's pinned catalog version:
        an index created after a snapshot began is invisible to it, and one
        dropped after it began is resurrected from catalog history — pinned
        plans keep their access path no matter what DDL commits around
        them.
        """
        definition = self._resolve(name, self._ambient_version())
        if definition is None:
            raise CatalogError(f"unknown index {name!r}")
        return definition

    def find(self, name: str) -> IndexDefinition | None:
        return self._resolve(name, self._ambient_version())

    def definitions(self) -> list[IndexDefinition]:
        """Every definition visible at the ambient version, sorted by name."""
        version = self._ambient_version()
        with self._lock:
            names = set(self._definitions)
        if version is not None:
            catalog = getattr(self._database, "catalog", None)
            if catalog is not None:
                names.update(catalog.keys("index"))
        resolved = (self._resolve(name, version) for name in sorted(names))
        return [definition for definition in resolved if definition is not None]

    def _ambient_version(self) -> "int | None":
        """The pinned catalog version, or ``None`` outside a transaction."""
        transactions = getattr(self._database, "transactions", None)
        if transactions is None:
            return None
        txn = current_transaction(transactions)
        if txn is None:
            return None
        return txn.snapshot.catalog_version

    def _resolve(
        self, name: str, version: "int | None"
    ) -> IndexDefinition | None:
        """``name``'s definition as of ``version`` (``None`` = latest live).

        Slots with no catalog history (definitions seeded before the first
        catalog commit, e.g. checkpoint reloads) fall back to the live
        state, matching :meth:`Catalog.value_at` semantics.
        """
        key = name.lower()
        with self._lock:
            live = self._definitions.get(key)
        if version is None:
            return live
        catalog = getattr(self._database, "catalog", None)
        if catalog is None or not catalog.has_entry("index", key):
            return live
        value = catalog.value_at("index", key, version)
        return value if isinstance(value, IndexDefinition) else None

    def for_table(self, table_name: str) -> list[IndexDefinition]:
        """Every definition on one table, sorted by name."""
        key = table_name.lower()
        return [d for d in self.definitions() if d.table == key]

    # -- build cache -----------------------------------------------------------

    def _entry(self, definition: IndexDefinition, costs) -> _IndexEntry:
        """The entry for ``definition``, exact for the visible rows.

        Callers hold the manager lock until they are done probing: a
        concurrent lookup at another snapshot may carry the entry forward
        (insert into the tree) at any time.
        """
        table = self._database.table(definition.table)
        version, rows, schema = table.version, table.rows, table.schema
        entry = self._entries.get(definition.name)
        if (
            entry is not None
            and entry.definition == definition
            and entry.schema is schema
        ):
            if entry.version == version:
                return entry
            if entry.carry_forward(rows):
                entry.version = version
                self._database.cost_total.charge(costs, "index.carried_forward")
                return entry
        entry = _IndexEntry(definition, schema)
        entry.extend(rows)
        entry.version = version
        self._entries[definition.name] = entry
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
                positions = entry.positions()[: len(prefix)]
                found = sorted(
                    found
                    + [
                        row_id
                        for row_id in entry.nulls
                        if tuple(entry.rows[row_id][p] for p in positions)
                        == prefix
                    ]
                )
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
        with self._lock:
            return {
                "definitions": len(self._definitions),
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
                info["version"] = built.version
                info["distinct_keys"] = len(built.structure)
            out.append(info)
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._definitions)
