"""Secondary indexes, table statistics and access-path mode resolution.

The subsystem mirrors the layering of the rest of the engine:

* :mod:`~repro.engine.index.btree` — an order-preserving B+-tree over one
  (possibly composite) key: point, prefix and range lookups;
* :mod:`~repro.engine.index.hash` — an equality-only hash index;
* :mod:`~repro.engine.index.statistics` — per-table/column statistics
  (row counts, NDV, min/max, equi-depth histograms) collected by
  ``ANALYZE`` and consumed by the optimizer's cost model;
* :mod:`~repro.engine.index.manager` — the :class:`IndexManager` owning
  index lifecycles, lazy maintenance (entries revalidated against the
  visible rows, rebuilt only when a key moved) and the
  policy-partitioned row layout.

Mode resolution follows the optimizer's and executor's explicit/env/default
ladder: an explicit argument wins, then ``$REPRO_INDEXES``, then the
default ``"on"``.  ``"off"`` compiles every query exactly as before this
subsystem existed and is the differential reference the fuzzer compares
against.
"""

from __future__ import annotations

import os

from ...errors import ExecutionError
from .btree import BTreeIndex
from .hash import HashIndex
from .manager import INDEX_KINDS, IndexDefinition, IndexManager
from .statistics import (
    ColumnStatistics,
    StatisticsCollector,
    TableStatistics,
    collect_table_statistics,
)

#: Environment variable consulted when no explicit index mode is given.
INDEXES_ENV = "REPRO_INDEXES"

#: The valid index modes.
INDEX_MODES = ("on", "off")


def resolve_index_mode(mode: str | None = None) -> str:
    """Resolve the access-path mode.

    Precedence: explicit argument > ``$REPRO_INDEXES`` > ``"on"`` — the
    same ladder as
    :func:`~repro.engine.plan.optimizer.resolve_optimizer_mode`.
    """
    if mode is None:
        mode = os.environ.get(INDEXES_ENV) or "on"
    mode = mode.strip().lower()
    if mode not in INDEX_MODES:
        raise ExecutionError(
            f"unknown index mode {mode!r} (expected one of {INDEX_MODES})"
        )
    return mode


__all__ = [
    "BTreeIndex",
    "ColumnStatistics",
    "HashIndex",
    "INDEXES_ENV",
    "INDEX_KINDS",
    "INDEX_MODES",
    "IndexDefinition",
    "IndexManager",
    "StatisticsCollector",
    "TableStatistics",
    "collect_table_statistics",
    "resolve_index_mode",
]
