"""The versioned catalog: commit-stamped metadata entries (DESIGN.md §15).

The engine's metadata — table schemas, index definitions, the purpose
taxonomy — lives in one versioned store: every metadata mutation commits a
``(kind, key) -> value`` entry stamped with a monotonically increasing
**catalog version** and the commit timestamp, so

* a :class:`~repro.engine.mvcc.Snapshot` pins ``(commit ts, catalog
  version)`` and metadata reads resolve *as of* that version — taxonomy
  edits and DDL become ordinary versioned commits visible only to later
  snapshots;
* the policy epoch *is* :attr:`Catalog.version` (plan caches,
  ``compliesWith`` memos and shard broadcasts key on it, and it advances
  on policy churn *and* DDL);
* transactional DDL validates **first-committer-wins on the catalog
  entry**: two transactions staging a change to the same ``(kind, key)``
  conflict, independent writers to different entries commit freely.

DDL stages a :class:`CatalogOp` — the slot it conflicts on and the logical
op — and commits like any other write.  The staging code writes no entry:
the one applier, :meth:`~repro.engine.database.Database.apply_commit`,
commits them at the commit's timestamp, live and at recovery alike (a
DROP TABLE's cascaded index tombstones included).

Entry kinds used by the engine:

``"schema"``
    key = table name, value = :class:`~repro.engine.schema.TableSchema`
    (committed by ALTER TABLE).
``"table"``
    key = table name, value = the schema on CREATE, ``None`` on DROP.
``"index"``
    key = index name, value = the
    :class:`~repro.engine.index.IndexDefinition` on CREATE, ``None`` on
    DROP.
``"acm"``
    key = ``"state"``, value = the access-control manager's immutable
    taxonomy snapshot (purposes + categorization) committed on every
    policy write.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable


class CatalogEntry:
    """One committed value of one ``(kind, key)`` catalog slot."""

    __slots__ = ("version", "ts", "value")

    def __init__(self, version: int, ts: int, value: object):
        self.version = version
        self.ts = ts
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CatalogEntry(version={self.version}, ts={self.ts})"


@dataclass
class CatalogOp:
    """A catalog mutation staged by a transaction's DDL statement.

    ``kind``/``key`` name the catalog slot it conflicts on
    (first-committer-wins).  ``ddl`` is the logical op — ``{"op":
    "create_index", "definition": ...}`` and the like — that the commit
    logs and hands to the one applier,
    :meth:`~repro.engine.database.Database.apply_commit`.  ``validate``
    runs during commit validation, *before* the WAL append, and may raise
    to abort the commit cleanly.
    """

    kind: str
    key: str
    ddl: dict
    validate: Callable[[], object] | None = None


class Catalog:
    """Versioned ``(kind, key) -> value`` store under one monotonic version.

    Histories are kept per slot so reads can resolve *as of* any still
    pinned catalog version; :meth:`prune` trims history below the oldest
    pinned version (the metadata counterpart of tuple-version pruning).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._version = 0
        self._entries: dict[tuple[str, str], list[CatalogEntry]] = {}
        self.commits = 0

    @property
    def version(self) -> int:
        """The current catalog version (the old "policy epoch", grown up)."""
        return self._version

    # -- committing -------------------------------------------------------

    def commit(
        self, ops: Iterable[tuple[str, str, object]], ts: int = 0
    ) -> int:
        """Commit entries at one new catalog version; returns that version.

        ``ops`` is an iterable of ``(kind, key, value)``; all entries of
        one call share the new version (one DDL statement = one version).
        """
        with self._lock:
            self._version += 1
            for kind, key, value in ops:
                history = self._entries.setdefault((kind, key.lower()), [])
                history.append(CatalogEntry(self._version, ts, value))
            self.commits += 1
            return self._version

    def advance_to(self, version: int) -> None:
        """Fast-forward the version counter (checkpoint reload / recovery)."""
        with self._lock:
            if version > self._version:
                self._version = version

    # -- reading ----------------------------------------------------------

    def last_commit_version(self, kind: str, key: str) -> int:
        """The version of the newest commit to ``(kind, key)`` (0 if none).

        This is what transactional DDL validates first-committer-wins
        against: a commit after the transaction's pinned catalog version
        means a concurrent writer got there first.
        """
        with self._lock:
            history = self._entries.get((kind, key.lower()))
            return history[-1].version if history else 0

    def value_at(
        self, kind: str, key: str, version: int | None = None
    ) -> object:
        """The newest value committed at or before ``version`` (or latest).

        Returns ``None`` when the slot has no entry at or before the
        version — callers fall back to their live (pre-catalog) state.
        """
        with self._lock:
            history = self._entries.get((kind, key.lower()))
            if not history:
                return None
            if version is None:
                return history[-1].value
            for entry in reversed(history):
                if entry.version <= version:
                    return entry.value
            return None

    def kinds_since(self, version: int) -> set[str]:
        """The entry kinds that have a commit newer than ``version``.

        Pruning never drops a slot's newest entry, so this stays exact
        however much history is gone.  A shard coordinator uses it to tell
        catalog movement it can ship (DDL kinds only) from movement it
        cannot (an ``"acm"`` commit made behind its back).
        """
        with self._lock:
            return {
                kind
                for (kind, _key), history in self._entries.items()
                if history and history[-1].version > version
            }

    def has_entry(self, kind: str, key: str) -> bool:
        with self._lock:
            return bool(self._entries.get((kind, key.lower())))

    def keys(self, kind: str) -> list[str]:
        """Every key with history under ``kind`` (dropped entries included).

        Snapshot-pinned readers use this to resurrect metadata that was
        dropped from the live state after their snapshot began (e.g. an
        index definition a pinned plan still probes).
        """
        with self._lock:
            return [key for (k, key) in self._entries if k == kind]

    # -- pruning ----------------------------------------------------------

    def prune(self, horizon_version: int) -> None:
        """Drop history invisible to every snapshot at/after the horizon.

        For each slot, the newest entry at or before the horizon stays (it
        is what a snapshot pinned exactly at the horizon resolves to); all
        older entries go.  Called alongside tuple-version pruning.
        """
        with self._lock:
            for slot, history in self._entries.items():
                if len(history) <= 1:
                    continue
                cut = 0
                for index, entry in enumerate(history):
                    if entry.version <= horizon_version:
                        cut = index
                if cut > 0:
                    self._entries[slot] = history[cut:]

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "version": self._version,
                "commits": self.commits,
                "slots": len(self._entries),
                "entries": sum(len(h) for h in self._entries.values()),
            }
