"""Policy posting lists and per-mask verdicts.

The rewriter's Def.-15 conjunct ``complieswith(b'<mask>', t.policy)`` is a
pure function of the (plan-constant) mask and the row's policy value, and
a table holds few distinct policy values.  :class:`PolicyBitmapCache`
therefore groups rows by policy value once, as Sieve does before it
evaluates any policy, and judges each value once per mask:

* **Per table, one posting index**, a hash
  :class:`~repro.engine.index.manager.RowIndex` on the policy column:
  each distinct non-NULL policy value → its ascending row ids, built in
  one pass over the visible rows (a *row pass*) and followed to another
  visible row list exactly as an index entry is.  It is row data only,
  so ``clear()`` keeps it.
* **Per ``(table, mask)``, one verdict map**: policy value → verdict, so
  at most |distinct values| UDF calls whatever the row count.

A guard intersects its masks' verdicts over the values: over a sequential
scan :meth:`~PolicyBitmapCache.passing_ids` merges the passing values'
posting lists, over an index probe :meth:`~PolicyBitmapCache.admitted`
judges its candidates' values only.  A verdict is a pure function of
two bit strings, so no commit makes one stale: a mask store is a row
write the posting index follows, and a taxonomy edit compiles new masks
that key new maps.  Nothing is swept; at most :data:`_ENTRY_LIMIT`
verdict maps and :data:`_GUARD_LIMIT` merges are kept, the oldest going
first.
A lookup charges its ``bitmap.*`` events and UDF calls to the calling
execution's cost ledger; ``stats()`` reads the total they fold into.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import TYPE_CHECKING

from ..index.hash import HashIndex
from ..index.manager import RowIndex
from ..functions import CostTotal
from ..types import BitString

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..functions import FunctionRegistry
    from ..table import Table

#: Bound on the cached ``(table, mask)`` verdict maps.  The paper's q1–q8
#: plus a point lookup keep about 30 live, the fuzz corpus replay about
#: 150; an ad-hoc workload that meets a new mask per statement would
#: otherwise grow them without end.
_ENTRY_LIMIT = 256

#: Bound on the cached guard merges, each one row id per passing row.
#: The paper's q1–q8 in both modes keep 16 live.
_GUARD_LIMIT = 32


class PolicyBitmapCache:
    """Posting indexes, verdict maps and guard merges for hoisted
    ``complieswith`` guards (see the module docstring)."""

    def __init__(self, cost_total: CostTotal | None = None) -> None:
        self.cost_total = cost_total if cost_total is not None else CostTotal()
        self._lock = threading.RLock()
        self._postings: dict[str, RowIndex] = {}
        #: ``(table, mask bits)`` → {policy value: verdict}.
        self._verdicts: dict[tuple[str, str], dict] = {}
        #: ``(table, masks)`` → (posting index, its stamp, ascending passing
        #: row ids).
        self._guards: dict[tuple[str, tuple], tuple] = {}

    def passing_ids(
        self,
        table: "Table",
        policy_column: str,
        masks: tuple[str, ...],
        registry: "FunctionRegistry",
        function_name: str,
        costs=None,
    ) -> list[int]:
        """Ascending ids of the visible rows whose policy passes every mask.

        What a guard hands its sequential scan: the merge of the passing
        values' posting lists, kept per ``(table, masks)`` and returned as
        the very same list while no row id changed lists, so a warm guard
        costs dictionary lookups.  Callers must not mutate it.

        UDF invocations route through ``registry.call_batch``, charging
        ``costs`` like any other call.  ``NULL`` policies are never judged
        (the UDF is strict) and never pass.
        """
        with self._lock:
            maps = self._verdict_maps(table, masks, costs)
            postings = self._postings_of(table, policy_column, costs)
            key = (table.name.lower(), masks)
            guard = self._guards.get(key)
            if (
                guard is None
                or guard[0] is not postings
                or guard[1] != postings.stamp
            ):
                items = list(postings.structure.items())
                allowed = _allowed(
                    maps, masks, [value for value, _ in items], registry,
                    function_name, costs,
                )
                lists = [ids for value, ids in items if value in allowed]
                guard = (
                    postings, postings.stamp, sorted(chain.from_iterable(lists))
                )
                self._guards.pop(key, None)
                while len(self._guards) >= _GUARD_LIMIT:
                    del self._guards[next(iter(self._guards))]
                self._guards[key] = guard
            return guard[2]

    def admitted(
        self,
        table: "Table",
        masks: tuple[str, ...],
        values,
        registry: "FunctionRegistry",
        function_name: str,
        costs=None,
    ) -> set:
        """The policy ``values`` (an index probe's candidates') passing
        every mask, each judged at most once per mask; NULL never passes."""
        with self._lock:
            return _allowed(
                self._verdict_maps(table, masks, costs), masks, values,
                registry, function_name, costs,
            )

    def _verdict_maps(self, table, masks, costs) -> list[dict]:
        """Each mask's verdict map, counted as a hit or as built from
        nothing; caller holds the lock."""
        name = table.name.lower()
        maps = []
        for bits in masks:
            verdicts = self._verdicts.get((name, bits))
            if verdicts is None:
                while len(self._verdicts) >= _ENTRY_LIMIT:
                    del self._verdicts[next(iter(self._verdicts))]
                verdicts = self._verdicts[(name, bits)] = {}
                self.cost_total.charge(costs, "bitmap.built")
            else:
                self.cost_total.charge(costs, "bitmap.hit")
            maps.append(verdicts)
        return maps

    def _postings_of(self, table, policy_column, costs) -> RowIndex:
        """The table's posting index, describing its visible rows; caller
        holds the lock."""
        name = table.name.lower()
        rows, schema = table.rows, table.schema
        postings = self._postings.get(name)
        if postings is not None and postings.schema is schema:
            if postings.describes(rows):
                return postings
            if postings.follow(rows):
                self.cost_total.charge(costs, "bitmap.revalidated")
                return postings
        postings = self._postings[name] = RowIndex(
            HashIndex(), schema, (policy_column,), rows
        )
        self.cost_total.charge(costs, "bitmap.row_pass")
        return postings

    def stats(self) -> dict:
        """Monotonic totals plus the live verdict-map and posting-index
        counts.

        ``hits`` / ``built`` count a guard's verdict-map lookups that found
        the map / created it from nothing; ``revalidated`` counts posting
        indexes carried to other rows by identity and ``row_passes`` full
        walks over a table's rows.
        """
        total = self.cost_total
        with self._lock:
            return {
                "hits": total["bitmap.hit"],
                "built": total["bitmap.built"],
                "revalidated": total["bitmap.revalidated"],
                "row_passes": total["bitmap.row_pass"],
                "entries": len(self._verdicts),
                "postings": len(self._postings),
            }

    def clear(self) -> None:
        """Drop every verdict and merge, so the next guards start cold;
        the posting indexes hold row data only and stay."""
        with self._lock:
            self._verdicts.clear()
            self._guards.clear()

    def forget(self, table_name: str) -> None:
        """Drop everything of one table (DROP TABLE cleanup) so a later
        same-named table can never inherit its postings or verdicts."""
        key = table_name.lower()
        with self._lock:
            self._postings.pop(key, None)
            for entries in (self._verdicts, self._guards):
                for entry_key in [k for k in entries if k[0] == key]:
                    del entries[entry_key]

    def __len__(self) -> int:
        with self._lock:
            return len(self._verdicts)


def _allowed(maps, masks, values, registry, function, costs) -> set:
    """The non-NULL (distinct) ``values`` that pass every mask.  Each value
    a mask's verdict map has not met yet costs one ``complieswith`` call;
    a mask judges its new values as one page."""
    values = [value for value in values if value is not None]
    for bits, verdicts in zip(masks, maps):
        fresh = [value for value in values if value not in verdicts]
        if fresh:
            mask = [BitString.from_bits(bits)] * len(fresh)
            judged = registry.call_batch(
                function, [mask, fresh], len(fresh), costs, (True, False)
            )
            verdicts.update(zip(fresh, map(bool, judged)))
    return {value for value in values if all(v[value] for v in maps)}
