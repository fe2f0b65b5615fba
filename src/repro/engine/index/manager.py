"""Index lifecycles, lazy maintenance and policy-partitioned layouts.

:class:`IndexManager` owns every secondary index of one database.  An
index *definition* (name, table, key columns, structure kind, optional
policy partitioning) is durable catalog state — it survives DML, is
persisted by :mod:`repro.engine.persist` and round-trips through ``CREATE
INDEX`` / ``DROP INDEX``.  The built *entry* (the B+-tree / hash structure
plus the partition layout) is a cache that remembers the row list it
describes:

* a lookup at the ``Table.version`` the entry was last validated for is a
  plain probe;
* at any other version (a commit, a policy change, a snapshot reading an
  older state, a staged overlay) the entry is **revalidated** against the
  visible row list instead of rebuilt.  The structure maps key → row
  position, so it is exact for another list iff every position up to the
  built length holds either the very same tuple object (``update_rows``
  and ``rows_as_of`` reuse unchanged tuples) or a tuple with the same key
  (and, for partitioned layouts, policy) values; rows appended past the
  built length are inserted.  Anything else — a delete, a key-changing
  update, a schema change — rebuilds from scratch;
* a dropped-and-recreated index or table never serves stale row ids.

Entries are mutated in place when carried forward, so every lookup
validates and probes under the manager lock.

**Policy-partitioned indexes** additionally group the table's row ids by
the exact value of the policy-mask column.  Because a hoisted
``complieswith`` guard passes or fails *per distinct policy value* — never
per row — a partition either qualifies wholesale or can be skipped without
touching any of its rows.  The executor asks :meth:`IndexManager
.partition_rows` with the bitmap cache's passing-row set; the manager
checks one representative row id per partition, counts the skipped
partitions, and returns the qualifying row ids merged back into ascending
storage order so emission matches a sequential scan exactly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from heapq import merge
from itertools import compress
from operator import is_not
from typing import TYPE_CHECKING

from ...errors import CatalogError, ExecutionError
from ..mvcc import current_transaction
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
    #: The policy column when the index is policy-partitioned, else ``None``.
    partitioned_by: str | None = None

    @property
    def partitioned(self) -> bool:
        return self.partitioned_by is not None

    def to_dict(self) -> dict:
        """JSON-ready form (what snapshots persist)."""
        return {
            "name": self.name,
            "table": self.table,
            "columns": list(self.columns),
            "kind": self.kind,
            "partitioned_by": self.partitioned_by,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "IndexDefinition":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload["name"]),
            table=str(payload["table"]),
            columns=tuple(str(c) for c in payload["columns"]),
            kind=str(payload.get("kind") or "btree"),
            partitioned_by=payload.get("partitioned_by"),
        )


class _IndexEntry:
    """A built index structure plus (optionally) its policy partitions.

    ``rows`` is the row list the entry was last validated against and
    ``length`` how many of its rows are indexed: append commits extend the
    committed list *in place*, so the retained list may have grown since.
    """

    __slots__ = (
        "definition", "schema", "structure", "partitions",
        "version", "rows", "length", "nulls",
    )

    def __init__(self, definition: IndexDefinition, schema):
        self.definition = definition
        self.schema = schema
        self.structure = (
            BTreeIndex() if definition.kind == "btree" else HashIndex()
        )
        self.partitions: dict | None = (
            {} if definition.partitioned_by is not None else None
        )
        self.version: object = None
        self.rows: list = []
        self.length = 0
        #: Ascending ids of the rows the structure cannot hold: a NULL in
        #: some key column.
        self.nulls: list[int] = []

    def positions(self) -> list[int]:
        """Schema positions of the key columns, then the partition column."""
        columns = list(self.definition.columns)
        if self.definition.partitioned_by is not None:
            columns.append(self.definition.partitioned_by)
        return [self.schema.column_index(c) for c in columns]

    def extend(self, rows: list) -> None:
        """Index ``rows[self.length:]`` and adopt ``rows`` as the row list."""
        positions = self.positions()
        partitions = self.partitions
        if partitions is not None:
            partition_position = positions.pop()
        single = len(positions) == 1
        insert = self.structure.insert
        for row_id in range(self.length, len(rows)):
            row = rows[row_id]
            key = tuple(row[p] for p in positions)
            if None not in key:
                insert(key[0] if single else key, row_id)
            else:
                self.nulls.append(row_id)
            if partitions is not None:
                partitions.setdefault(row[partition_position], []).append(row_id)
        self.rows = rows
        self.length = len(rows)

    def carry_forward(self, rows: list) -> bool:
        """Make the entry describe ``rows`` if that needs no rebuild."""
        old, length = self.rows, self.length
        if len(rows) < length:
            return False
        if rows is not old:
            positions = self.positions()
            # The positions holding another tuple object (a C-speed pass).
            for row_id in compress(range(length), map(is_not, old, rows)):
                before, after = old[row_id], rows[row_id]
                if any(before[p] != after[p] for p in positions):
                    return False
        self.extend(rows)
        return True


class IndexManager:
    """Per-database index catalog, build cache and lookup counters."""

    def __init__(self, database: "Database"):
        self._database = database
        self._lock = threading.RLock()
        self._definitions: dict[str, IndexDefinition] = {}
        self._entries: dict[str, _IndexEntry] = {}
        # Monotonic counters, reported like the bitmap cache's stats() so
        # the monitor and metrics layer can take per-execution deltas.
        # Every lookup is a hit; one that found the entry at another table
        # version also counts a carry-forward (revalidated) or a rebuild.
        self._hits = 0
        self._rebuilds = 0
        self._carried_forward = 0
        self._partition_hits = 0
        self._partition_skips = 0

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
            partitioned_by=(
                definition.partitioned_by.lower()
                if definition.partitioned_by is not None
                else None
            ),
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
        if normalized.partitioned_by is not None:
            policy_column = getattr(self._database, "policy_column", None)
            if normalized.partitioned_by != (policy_column or "").lower():
                raise CatalogError(
                    f"index {normalized.name!r}: partitioning column "
                    f"{normalized.partitioned_by!r} is not the policy column"
                )
            table.schema.column_index(normalized.partitioned_by)
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

    def partitioned_for(self, table_name: str) -> IndexDefinition | None:
        """The first policy-partitioned index on ``table_name``, if any."""
        for definition in self.for_table(table_name):
            if definition.partitioned:
                return definition
        return None

    # -- build cache -----------------------------------------------------------

    def _entry(self, definition: IndexDefinition) -> _IndexEntry:
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
                self._carried_forward += 1
                return entry
        entry = _IndexEntry(definition, schema)
        entry.extend(rows)
        entry.version = version
        self._entries[definition.name] = entry
        self._rebuilds += 1
        return entry

    def build(self, name: str) -> None:
        """Build (or revalidate) index ``name`` now, not at its first probe."""
        definition = self.get(name)
        with self._lock:
            self._entry(definition)

    # -- lookups ---------------------------------------------------------------

    def lookup_equal(self, name: str, key) -> list[int]:
        """Row ids (ascending) matching ``key`` on index ``name``.

        ``key`` is the column value for a single-column index and the tuple
        of column values for a composite one.
        """
        definition = self.get(name)
        with self._lock:
            self._hits += 1
            return self._entry(definition).structure.search(key)

    def lookup_prefix(self, name: str, prefix: tuple) -> list[int]:
        """Row ids (ascending) whose leading key columns equal ``prefix``.

        A prefix covering every key column is an equality probe (either
        structure); a shorter one walks the leaves of a B-tree.
        """
        definition = self.get(name)
        if len(prefix) == len(definition.columns):
            return self.lookup_equal(
                name, prefix[0] if len(prefix) == 1 else prefix
            )
        self._require_btree(definition, "prefix")
        with self._lock:
            self._hits += 1
            entry = self._entry(definition)
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

    def null_key_rows(self, name: str) -> list[int]:
        """Ids (ascending) of the rows with a NULL in a key column of
        ``name`` — rows no probe returns, although a statement that counts
        predicate evaluations still has to look at them."""
        definition = self.get(name)
        with self._lock:
            return list(self._entry(definition).nulls)

    def lookup_range(
        self,
        name: str,
        lower=None,
        upper=None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> list[int]:
        """Row ids (ascending) inside the bound pair on B-tree index ``name``."""
        definition = self.get(name)
        self._require_btree(definition, "range")
        with self._lock:
            self._hits += 1
            return self._entry(definition).structure.range(
                lower, upper, lower_inclusive, upper_inclusive
            )

    @staticmethod
    def _require_btree(definition: IndexDefinition, access: str) -> None:
        if definition.kind != "btree":
            raise ExecutionError(
                f"index {definition.name!r} ({definition.kind}) does not "
                f"support {access} lookups"
            )

    def partition_rows(self, name: str, passing) -> list[int]:
        """Row ids of every partition whose policy value passes the guards.

        ``passing`` is the bitmap cache's (already guard-intersected) set of
        passing row ids.  A ``complieswith`` verdict is uniform across a
        partition — all of its rows share one policy value — so membership
        of one representative row id decides the whole run.  Qualifying
        partitions are merged back into ascending storage order; skipped
        ones (NULL-policy partitions included) are counted without touching
        their rows.
        """
        definition = self.get(name)
        if not definition.partitioned:
            raise ExecutionError(f"index {definition.name!r} is not partitioned")
        with self._lock:
            entry = self._entry(definition)
            qualifying = []
            skipped = 0
            for rows in entry.partitions.values():
                if rows and rows[0] in passing:
                    qualifying.append(rows)
                else:
                    skipped += 1
            self._hits += 1
            self._partition_hits += len(qualifying)
            self._partition_skips += skipped
            if len(qualifying) == 1:
                return list(qualifying[0])
            return list(merge(*qualifying))

    def partition_count(self, name: str) -> int:
        """Number of distinct policy values in a partitioned index."""
        definition = self.get(name)
        if not definition.partitioned:
            return 0
        with self._lock:
            return len(self._entry(definition).partitions)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Monotonic lookup/rebuild/carry-forward/partition counters plus
        catalog sizes."""
        with self._lock:
            return {
                "definitions": len(self._definitions),
                "built": len(self._entries),
                "hits": self._hits,
                "rebuilds": self._rebuilds,
                "carried_forward": self._carried_forward,
                "partition_hits": self._partition_hits,
                "partition_skips": self._partition_skips,
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
                if built.partitions is not None:
                    info["partitions"] = len(built.partitions)
            out.append(info)
        return out

    def clear_entries(self) -> None:
        """Drop every built structure (definitions survive)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._definitions)
