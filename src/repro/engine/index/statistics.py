"""Table and column statistics for the cost-based optimizer.

``ANALYZE`` routes here: :class:`StatisticsCollector` snapshots per-table
row counts and per-column NDV / null counts / min-max / equi-depth
histograms, remembering the visible row list they were computed from.
The optimizer only trusts *fresh* statistics: the reader's visible list
is that very list at that length.  Every write either appends to the list
or replaces it, so a DML statement (staged or committed) silently
invalidates the snapshot until the next ``ANALYZE`` — the staleness rule
the column image, index entries and the policy posting index use.

The policy-mask column is collected like any other: its distinct-value
count is exactly the PolicyBitmapCache's per-mask UDF budget, so the
server's stats endpoint surfaces it as ``policy_distinct``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ...errors import CatalogError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..database import Database
    from ..table import Table

#: Buckets per equi-depth histogram.
HISTOGRAM_BUCKETS = 16


@dataclass(frozen=True)
class ColumnStatistics:
    """One column's statistics snapshot.

    ``minimum``/``maximum``/``histogram`` stay ``None``/empty when the
    column's values do not form a total order (e.g. policy bit strings) —
    NDV and null counts are still collected for them.
    """

    column: str
    null_count: int
    distinct: int
    minimum: object | None = None
    maximum: object | None = None
    #: Equi-depth bucket upper bounds over the non-NULL values; each bucket
    #: holds ``non_null / len(histogram)`` rows.
    histogram: tuple = ()


@dataclass(frozen=True)
class TableStatistics:
    """One table's statistics snapshot of the row list ``rows``."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)
    rows: list = field(default_factory=list, repr=False, compare=False)

    def column(self, name: str) -> ColumnStatistics | None:
        return self.columns.get(name.lower())

    def is_fresh(self, table: "Table") -> bool:
        """Whether the snapshot still describes the table's visible rows."""
        rows = table.rows
        return rows is self.rows and len(rows) == self.row_count

    # -- cardinality estimates ------------------------------------------------

    def estimate_equal(self, column: str, value=None) -> int | None:
        """Estimated rows matching ``column = value`` (uniform over NDV)."""
        stats = self.column(column)
        if stats is None:
            return None
        non_null = self.row_count - stats.null_count
        if non_null <= 0 or stats.distinct == 0:
            return 0
        if value is not None and stats.minimum is not None:
            try:
                if value < stats.minimum or value > stats.maximum:
                    return 0
            except TypeError:
                pass
        return max(1, non_null // stats.distinct)

    def estimate_range(
        self,
        column: str,
        lower=None,
        upper=None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> int | None:
        """Estimated rows in the bound pair, from the equi-depth histogram."""
        stats = self.column(column)
        if stats is None or not stats.histogram:
            return None
        non_null = self.row_count - stats.null_count
        try:
            above = (
                _fraction_at_most(stats.histogram, lower, not lower_inclusive)
                if lower is not None
                else 0.0
            )
            below = (
                _fraction_at_most(stats.histogram, upper, upper_inclusive)
                if upper is not None
                else 1.0
            )
        except TypeError:
            return None
        fraction = max(0.0, below - above)
        return max(1, round(non_null * fraction)) if fraction > 0 else 0


def _fraction_at_most(bounds: tuple, value, inclusive: bool) -> float:
    """Fraction of rows with key ``<=`` (or ``<``) ``value``.

    ``bounds`` are equi-depth bucket upper bounds, so each bound accounts
    for an equal ``1/len(bounds)`` slice of the non-NULL rows.
    """
    if inclusive:
        position = bisect_right(bounds, value)
    else:
        position = bisect_left(bounds, value)
    return position / len(bounds)


def collect_table_statistics(
    table: "Table", buckets: int = HISTOGRAM_BUCKETS
) -> TableStatistics:
    """Compute a fresh :class:`TableStatistics` snapshot of ``table``."""
    columns: dict[str, ColumnStatistics] = {}
    rows = table.rows
    for position, column in enumerate(table.schema.columns):
        values = [row[position] for row in rows]
        non_null = [value for value in values if value is not None]
        null_count = len(values) - len(non_null)
        distinct = len(set(non_null))
        minimum = maximum = None
        histogram: tuple = ()
        if non_null:
            try:
                ordered = sorted(non_null)
            except TypeError:
                ordered = None  # unorderable domain (policy bit strings)
            if ordered is not None:
                minimum, maximum = ordered[0], ordered[-1]
                if distinct > 1:
                    histogram = _equi_depth_bounds(ordered, buckets)
        columns[column.name.lower()] = ColumnStatistics(
            column=column.name.lower(),
            null_count=null_count,
            distinct=distinct,
            minimum=minimum,
            maximum=maximum,
            histogram=histogram,
        )
    return TableStatistics(
        table=table.name.lower(),
        row_count=len(rows),
        columns=columns,
        rows=rows,
    )


def _equi_depth_bounds(ordered: list, buckets: int) -> tuple:
    """Bucket upper bounds splitting ``ordered`` into equal-count runs."""
    count = len(ordered)
    buckets = min(buckets, count)
    return tuple(
        ordered[((index + 1) * count) // buckets - 1] for index in range(buckets)
    )


class StatisticsCollector:
    """Owns every table's statistics snapshot for one database.

    Snapshots are only written by :meth:`collect` (``ANALYZE``); readers
    use :meth:`fresh` and get ``None`` for stale or absent snapshots, so
    the optimizer degrades to its heuristic defaults instead of trusting
    numbers that no longer describe the data.
    """

    def __init__(self, database: "Database"):
        self._database = database
        self._lock = threading.RLock()
        self._snapshots: dict[str, TableStatistics] = {}
        self._collections = 0

    # -- collection ------------------------------------------------------------

    def collect(self, table_name: str | None = None) -> list[TableStatistics]:
        """ANALYZE one table (or, with ``None``, every table)."""
        if table_name is None:
            names = sorted(self._database.tables)
        else:
            names = [table_name]
        collected = []
        for name in names:
            table = self._database.table(name)
            snapshot = collect_table_statistics(table)
            with self._lock:
                self._snapshots[snapshot.table] = snapshot
                self._collections += 1
            collected.append(snapshot)
        return collected

    # -- reads -----------------------------------------------------------------

    def get(self, table_name: str) -> TableStatistics | None:
        """The last snapshot for ``table_name``, fresh or not."""
        with self._lock:
            return self._snapshots.get(table_name.lower())

    def fresh(self, table: "Table") -> TableStatistics | None:
        """The snapshot for ``table`` iff it describes the visible rows."""
        snapshot = self.get(table.name)
        if snapshot is not None and snapshot.is_fresh(table):
            return snapshot
        return None

    def is_stale(self, table: "Table") -> bool:
        """Whether ``table`` has no usable snapshot (absent counts as stale)."""
        return self.fresh(table) is None

    # -- lifecycle -------------------------------------------------------------

    def forget(self, table_name: str) -> None:
        """Drop the snapshot for one table (DROP TABLE)."""
        with self._lock:
            self._snapshots.pop(table_name.lower(), None)

    def clear(self) -> None:
        """Drop every snapshot."""
        with self._lock:
            self._snapshots.clear()

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        """Monotonic collection count plus the live snapshot count."""
        with self._lock:
            return {
                "tables": len(self._snapshots),
                "collections": self._collections,
            }

    def summary(self) -> dict:
        """Per-table snapshot summary for the server's stats endpoint."""
        policy_column = getattr(self._database, "policy_column", None)
        out: dict[str, dict] = {}
        with self._lock:
            snapshots = dict(self._snapshots)
        for name, snapshot in sorted(snapshots.items()):
            entry = {
                "rows": snapshot.row_count,
                "columns": len(snapshot.columns),
            }
            try:
                entry["fresh"] = snapshot.is_fresh(self._database.table(name))
            except CatalogError:
                entry["fresh"] = False
            if policy_column:
                policy = snapshot.column(policy_column)
                if policy is not None:
                    entry["policy_distinct"] = policy.distinct
            out[name] = entry
        return out
