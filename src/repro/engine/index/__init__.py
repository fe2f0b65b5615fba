"""Secondary indexes and table statistics.

The subsystem mirrors the layering of the rest of the engine:

* :mod:`~repro.engine.index.btree` — an order-preserving B+-tree over one
  (possibly composite) key: point, prefix and range lookups;
* :mod:`~repro.engine.index.hash` — an equality-only hash index;
* :mod:`~repro.engine.index.statistics` — per-table/column statistics
  (row counts, NDV, min/max, equi-depth histograms) collected by
  ``ANALYZE`` and consumed by the optimizer's cost model;
* :mod:`~repro.engine.index.manager` — the :class:`IndexManager` owning
  index lifecycles and lazy maintenance (entries revalidated against the
  visible rows, rebuilt only when a key moved).

There is no index mode: the full optimizer pipeline chooses an access
path whenever an index serves the query.  The reference an index path is
checked against is the same data with the index dropped.  Indexes know
nothing of policies: rows are grouped by policy value once, in the
policy bitmap cache, and a guard over an index scan keeps the probe's
candidates that its bitmap passes.
"""

from __future__ import annotations

from .btree import BTreeIndex
from .hash import HashIndex
from .manager import INDEX_KINDS, IndexDefinition, IndexManager
from .statistics import (
    ColumnStatistics,
    StatisticsCollector,
    TableStatistics,
    collect_table_statistics,
)

__all__ = [
    "BTreeIndex",
    "ColumnStatistics",
    "HashIndex",
    "INDEX_KINDS",
    "IndexDefinition",
    "IndexManager",
    "StatisticsCollector",
    "TableStatistics",
    "collect_table_statistics",
]
