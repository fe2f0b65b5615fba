"""Secondary indexes.

The subsystem mirrors the layering of the rest of the engine:

* :mod:`~repro.engine.index.btree` — an order-preserving B+-tree over one
  (possibly composite) key: point, prefix and range lookups;
* :mod:`~repro.engine.index.hash` — an equality-only hash index;
* :mod:`~repro.engine.index.manager` — the :class:`IndexManager` owning
  index lifecycles and lazy maintenance (each entry a ``RowIndex``
  following the visible rows, rebuilt only for a shorter list or another
  schema).

There is no index mode: the full optimizer pipeline chooses an access
path whenever an index serves the query.  The reference an index path is
checked against is the same data with the index dropped.  Indexes know
nothing of policies: rows are grouped by policy value once, in the
policy posting index, and a guard over an index scan keeps the probe's
candidates whose policy value passes.
"""

from __future__ import annotations

from .btree import BTreeIndex
from .hash import HashIndex
from .manager import INDEX_KINDS, IndexDefinition, IndexManager

__all__ = [
    "BTreeIndex",
    "HashIndex",
    "INDEX_KINDS",
    "IndexDefinition",
    "IndexManager",
]
