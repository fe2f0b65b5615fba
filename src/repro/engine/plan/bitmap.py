"""Policy-mask row bitmaps.

The rewriter's Def.-15 conjunct ``complieswith(b'<mask>', t.policy)`` is a
pure function of two values: the (plan-constant) action-aware mask and the
row's policy column.  A table with *n* rows therefore needs at most
*|distinct policy values|* UDF evaluations — not *n* — to classify every
row.  :class:`PolicyBitmapCache` exploits that: per ``(table, mask)`` it
evaluates the UDF once per distinct policy value, records the set of
passing row indices, and reuses that set across executions until either

* the table's row storage changes (``Table.version`` bump — the index set
  is rebuilt from the memoized per-value verdicts, costing zero new UDF
  calls for already-seen values), or
* the policy epoch bumps (``clear()`` via the admin's ``EpochScoped``
  registration — masks may now mean something different, so verdicts are
  discarded wholesale).

This is the in-memory analogue of the paper's bitwise-AND fast path: the
guard becomes a set-membership test instead of a per-row function call.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..functions import FunctionRegistry
    from ..table import Table


class PolicyBitmapCache:
    """Row bitmaps for hoisted ``complieswith`` guards.

    Entries are keyed by ``(table name, mask bits)`` and carry the table
    row-storage version they were built against, the frozen set of passing
    row indices, and the per-distinct-policy-value verdict memo that lets a
    rebuild after a data change skip UDF calls for values already judged.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[tuple[str, str], tuple[int, frozenset, dict]] = {}
        #: What a guard asks for, kept beside the entries it was derived
        #: from: ``(table, masks)`` → (those entries, the row indices passing
        #: every mask, the same indices as an ascending list).
        self._guards: dict[tuple[str, tuple], tuple] = {}
        # Monotonic counters (survive clear()) so monitors can report
        # deltas the same way the complieswith ledger does.
        self._hits = 0
        self._built = 0

    def passing_indices(
        self,
        table: "Table",
        policy_column: str,
        mask_bits: str,
        registry: "FunctionRegistry",
        function_name: str,
    ) -> frozenset:
        """Row indices of ``table`` whose policy passes ``mask_bits``.

        UDF invocations route through ``registry.call`` so the engine's
        per-function counter, the monitor's report delta, and the metrics
        layer keep agreeing about how many ``complieswith`` evaluations an
        execution cost.  ``NULL`` policies are skipped entirely — the UDF
        is strict, so the seed engine never invoked (or counted) it for
        them, and a NULL policy never passes.
        """
        with self._lock:
            return self._entry(
                table, policy_column, mask_bits, registry, function_name
            )[1]

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
        (index candidates, partitions), the list is what a guard over a
        sequential scan slices per page.  Each mask's own entry is
        looked up (and counted as a hit or a build) exactly as
        :meth:`passing_indices` would; the intersection and its ascending
        list are kept beside them and reused until one of those entries is
        rebuilt, so a warm guard costs dictionary lookups, not a set
        intersection and a sort over the passing ids.
        """
        with self._lock:
            entries = [
                self._entry(table, policy_column, bits, registry, function_name)
                for bits in masks
            ]
            key = (table.name.lower(), masks)
            guard = self._guards.get(key)
            if guard is None or any(
                ours is not theirs for ours, theirs in zip(guard[0], entries)
            ):
                sets = sorted((entry[1] for entry in entries), key=len)
                passing = sets[0].intersection(*sets[1:])
                if len(passing) == len(sets[0]):
                    passing = sets[0]  # nested masks: share, do not copy
                guard = (entries, passing, sorted(passing))
                self._guards[key] = guard
            return guard[1], guard[2]

    def _entry(
        self, table, policy_column, mask_bits, registry, function_name
    ) -> tuple[int, frozenset, dict]:
        """One mask's ``(version, passing, verdicts)``; caller holds the lock."""
        key = (table.name.lower(), mask_bits)
        entry = self._entries.get(key)
        if entry is not None and entry[0] == table.version:
            self._hits += 1
            return entry
        verdicts = entry[2] if entry is not None else {}
        policy_index = table.schema.column_index(policy_column)
        passing = set()
        for index, row in enumerate(table.rows):
            value = row[policy_index]
            if value is None:
                continue
            verdict = verdicts.get(value)
            if verdict is None:
                verdict = bool(
                    registry.call(function_name, (_mask_value(mask_bits), value))
                )
                verdicts[value] = verdict
            if verdict:
                passing.add(index)
        entry = (table.version, frozenset(passing), verdicts)
        self._entries[key] = entry
        self._built += 1
        return entry

    def stats(self) -> dict:
        """Monotonic ``hits`` / ``built`` totals plus the live entry count."""
        with self._lock:
            return {
                "hits": self._hits,
                "built": self._built,
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


def _mask_value(mask_bits: str):
    from ..types import BitString

    return BitString.from_bits(mask_bits)
