"""An equality-only hash index.

One dict from key to its ascending row-id posting list.  Like the B-tree
it inserts and removes single ``(key, row id)`` pairs, which is how a
:class:`~repro.engine.index.manager.RowIndex` — a hash secondary index or
a table's policy posting index — moves a row id from one key to another
when a commit rewrites the row's key.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator


class HashIndex:
    """Key → ascending row-id posting list, equality lookups only."""

    def __init__(self) -> None:
        self._buckets: dict = {}

    def insert(self, key, row_id: int) -> None:
        """Add one ``(key, row id)`` pair, keeping its posting list ascending."""
        insort(self._buckets.setdefault(key, []), row_id)

    def remove(self, key, row_id: int) -> None:
        """Drop one ``(key, row id)`` pair; a key left without ids goes."""
        ids = self._buckets[key]
        del ids[bisect_left(ids, row_id)]
        if not ids:
            del self._buckets[key]

    def search(self, key) -> list[int]:
        """Row ids (ascending) whose key equals ``key``."""
        try:
            return list(self._buckets.get(key, ()))
        except TypeError:  # unhashable probe value never matches
            return []

    def items(self) -> Iterator[tuple[object, list[int]]]:
        """``(key, posting list)`` pairs in insertion order."""
        return iter(self._buckets.items())

    def __len__(self) -> int:
        """Number of distinct keys."""
        return len(self._buckets)

    @property
    def entries(self) -> int:
        """Number of ``(key, row id)`` pairs held (counted on demand)."""
        return sum(map(len, self._buckets.values()))
