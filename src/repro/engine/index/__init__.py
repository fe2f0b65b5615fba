"""Secondary indexes.

One structure, :class:`~repro.engine.index.manager.RowIndex`, serves
every index of the engine: a dict from key to its ascending row ids for
equality, and the distinct keys sorted on the first range or
composite-prefix lookup.  :class:`IndexManager` owns index lifecycles
and lazy maintenance (each entry a ``RowIndex`` following the visible
rows, rebuilt only for a shorter list or another schema).  An index's
kind (``btree``, or ``hash`` for equality only) is catalog state the
planner reads; it does not change the structure.

There is no index mode: the full optimizer pipeline chooses an access
path whenever an index serves the query.  The reference an index path is
checked against is the same data with the index dropped.  Indexes know
nothing of policies: rows are grouped by policy value once, in the
policy posting index (a ``RowIndex`` too), and a guard over an index
scan keeps the probe's candidates whose policy value passes.
"""

from __future__ import annotations

from .manager import INDEX_KINDS, IndexDefinition, IndexManager, RowIndex

__all__ = [
    "INDEX_KINDS",
    "IndexDefinition",
    "IndexManager",
    "RowIndex",
]
