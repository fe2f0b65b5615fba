"""Policy-mask row bitmaps.

The rewriter's Def.-15 conjunct ``complieswith(b'<mask>', t.policy)`` is a
pure function of two values: the (plan-constant) action-aware mask and the
row's policy column.  A table with *n* rows therefore needs at most
*|distinct policy values|* UDF evaluations — not *n* — to classify every
row.  :class:`PolicyBitmapCache` exploits that: per ``(table, mask)`` it
evaluates the UDF once per distinct policy value, records the set of
passing row indices, and reuses that set across executions until either

* the table's visible row state changes (``Table.version`` differs: a
  commit, a snapshot reading an older state, a staged overlay).  The entry
  is then **revalidated** against the visible row list, not rebuilt: a
  delta commit keeps every untouched tuple the very same object, so one
  C-speed identity pass finds the positions holding another tuple, and
  only those rows (plus rows appended past the old length) are re-judged
  through the per-value verdict memo.  When no row's verdict flips the
  entry keeps its very same ``frozenset``, so a guard's cached
  intersection and order stay valid too.  A row list shorter than the
  entry's (a delete) or another schema object (ALTER TABLE) falls back to
  a full build, which still costs zero UDF calls for values already
  judged; or
* the policy epoch bumps (``AccessControlManager.bump_policy_epoch`` calls
  ``clear()`` — masks may now mean something different, so verdicts are
  discarded wholesale).

At most :data:`_ENTRY_LIMIT` entries are kept; the oldest goes first.

This is the in-memory analogue of the paper's bitwise-AND fast path: the
guard becomes a set-membership test instead of a per-row function call.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import TYPE_CHECKING

from ..table import replaced_positions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..functions import FunctionRegistry
    from ..table import Table

#: Bound on the cached ``(table, mask)`` entries.  The paper's q1–q8 plus
#: a point lookup keep about 30 live, the fuzz corpus replay about 150; an
#: ad-hoc workload that meets a new mask per statement would otherwise grow
#: the cache until the next policy epoch bump, and each entry holds a
#: passing set and a row list as long as its table.
_ENTRY_LIMIT = 256


class _BitmapEntry:
    """One mask's passing row ids, and what they were derived from.

    ``rows``/``length`` are the row list the entry was last validated
    against and how many of its rows are judged (append commits extend the
    committed list in place, so the list may have grown since); ``schema``
    and ``position`` locate the policy column in those rows; ``verdicts``
    memoizes the UDF per distinct policy value.
    """

    __slots__ = (
        "version", "passing", "verdicts", "rows", "length", "schema",
        "position",
    )

    def __init__(
        self, version, passing, verdicts, rows, length, schema, position
    ):
        self.version = version
        self.passing: frozenset = passing
        self.verdicts: dict = verdicts
        self.rows: list = rows
        self.length = length
        self.schema = schema
        self.position = position


class PolicyBitmapCache:
    """Row bitmaps for hoisted ``complieswith`` guards.

    Entries are keyed by ``(table name, mask bits)`` and carry the table
    row-storage version they were last validated for, the frozen set of
    passing row indices, the row list it describes, and the
    per-distinct-policy-value verdict memo that lets a revalidation or
    rebuild skip UDF calls for values already judged.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[tuple[str, str], _BitmapEntry] = {}
        #: What a guard asks for, kept beside the passing sets it was
        #: derived from: ``(table, masks)`` → (those sets, the row indices
        #: passing every mask, the same indices as an ascending list).
        self._guards: dict[tuple[str, tuple], tuple] = {}
        # Monotonic counters (survive clear()) so monitors can report
        # deltas the same way the complieswith ledger does.
        self._hits = 0
        self._built = 0
        self._revalidated = 0

    def passing(
        self,
        table: "Table",
        policy_column: str,
        masks: tuple[str, ...],
        registry: "FunctionRegistry",
        function_name: str,
    ) -> tuple[frozenset, list[int]]:
        """Row indices passing *every* mask: ``(set, ascending list)``.

        What a guard asks once per execution: the set answers membership
        of an index scan's candidates, the list is the row ids a guard
        hands its sequential scan.  Each mask's own entry is looked
        up and counted as a hit, a revalidation or a build; the
        intersection and its ascending list are kept beside them and
        reused while every mask's passing set is the very same object, so
        a warm guard costs dictionary lookups, not a set intersection and
        a sort over the passing ids.

        UDF invocations route through ``registry.call`` so the engine's
        per-function counter, the monitor's report delta, and the metrics
        layer keep agreeing about how many ``complieswith`` evaluations an
        execution cost.  ``NULL`` policies are skipped entirely — the UDF
        is strict, so the seed engine never invoked (or counted) it for
        them, and a NULL policy never passes.
        """
        with self._lock:
            sets = tuple(
                self._entry(table, policy_column, bits, registry, function_name)
                for bits in masks
            )
            key = (table.name.lower(), masks)
            guard = self._guards.get(key)
            if guard is None or any(
                ours is not theirs for ours, theirs in zip(guard[0], sets)
            ):
                ordered = sorted(sets, key=len)
                passing = ordered[0].intersection(*ordered[1:])
                if len(passing) == len(ordered[0]):
                    passing = ordered[0]  # nested masks: share, do not copy
                guard = (sets, passing, sorted(passing))
                self._guards[key] = guard
            return guard[1], guard[2]

    def _entry(
        self, table, policy_column, mask_bits, registry, function_name
    ) -> frozenset:
        """One mask's passing row ids; caller holds the lock."""
        key = (table.name.lower(), mask_bits)
        version = table.version
        entry = self._entries.get(key)
        if entry is not None and entry.version == version:
            self._hits += 1
            return entry.passing
        rows, schema = table.rows, table.schema
        if (
            entry is not None
            and entry.schema is schema
            and self._revalidate(entry, rows, mask_bits, registry, function_name)
        ):
            entry.version = version
            self._revalidated += 1
            return entry.passing
        if entry is not None:
            verdicts = entry.verdicts
        else:
            verdicts = {}
            while len(self._entries) >= _ENTRY_LIMIT:
                self._evict(next(iter(self._entries)))
        position = schema.column_index(policy_column)
        # Read once: an append commit extends the committed list in place,
        # and rows past this length are judged again by the next revalidation.
        length = len(rows)
        passing = set()
        for index, row in enumerate(rows):
            value = row[position]
            if value is None:
                continue
            verdict = verdicts.get(value)
            if verdict is None:
                verdict = verdicts[value] = _judge(
                    mask_bits, value, registry, function_name
                )
            if verdict:
                passing.add(index)
        entry = _BitmapEntry(
            version, frozenset(passing), verdicts, rows, length, schema,
            position,
        )
        self._entries[key] = entry
        self._built += 1
        return entry.passing

    @staticmethod
    def _revalidate(entry, rows, mask_bits, registry, function_name) -> bool:
        """Make ``entry`` describe ``rows`` if that needs no full build.

        Re-judges only the positions holding another tuple object and the
        rows past the entry's length; ``False`` (rebuild) when ``rows`` is
        shorter than the entry, i.e. some row was deleted.
        """
        changed = replaced_positions(entry.rows, entry.length, rows)
        if changed is None:
            return False
        length, end = entry.length, len(rows)
        position, verdicts, passing = entry.position, entry.verdicts, entry.passing
        gained: list[int] = []
        lost: list[int] = []
        for row_id in chain(changed, range(length, end)):
            value = rows[row_id][position]
            verdict = False
            if value is not None:
                verdict = verdicts.get(value)
                if verdict is None:
                    verdict = verdicts[value] = _judge(
                        mask_bits, value, registry, function_name
                    )
            if verdict != (row_id in passing):
                (gained if verdict else lost).append(row_id)
        if gained or lost:
            entry.passing = passing.difference(lost).union(gained)
        entry.rows, entry.length = rows, end
        return True

    def _evict(self, key: tuple[str, str]) -> None:
        """Drop one entry and every guard derived from it."""
        del self._entries[key]
        table, bits = key
        for guard_key in [
            k for k in self._guards if k[0] == table and bits in k[1]
        ]:
            del self._guards[guard_key]

    def stats(self) -> dict:
        """Monotonic ``hits`` / ``built`` / ``revalidated`` totals plus the
        live entry count."""
        with self._lock:
            return {
                "hits": self._hits,
                "built": self._built,
                "revalidated": self._revalidated,
                "entries": len(self._entries),
            }

    def clear(self) -> None:
        """Drop every bitmap and verdict (catalog-version invalidation)."""
        with self._lock:
            self._entries.clear()
            self._guards.clear()

    def forget(self, table_name: str) -> None:
        """Drop every entry of one table (DROP TABLE cleanup) so a later
        same-named table can never inherit its bitmaps or verdicts."""
        key = table_name.lower()
        with self._lock:
            for entries in (self._entries, self._guards):
                for entry_key in [k for k in entries if k[0] == key]:
                    del entries[entry_key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _judge(mask_bits: str, value, registry, function_name) -> bool:
    """One ``complieswith(mask, value)`` evaluation, counted by the registry."""
    from ..types import BitString

    return bool(
        registry.call(function_name, (BitString.from_bits(mask_bits), value))
    )
