"""An equality-only hash index.

One dict from key to its ascending row-id posting list.  Like the B+-tree
this structure is insert-only: after DML the manager revalidates the
entry against the new rows (inserting appended ones) or rebuilds it; a
key is never removed in place.
"""

from __future__ import annotations

from typing import Iterator


class HashIndex:
    """Key → ascending row-id posting list, equality lookups only."""

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._entries = 0

    def insert(self, key, row_id: int) -> None:
        """Add one ``(key, row id)`` pair (row ids arrive in row order)."""
        self._buckets.setdefault(key, []).append(row_id)
        self._entries += 1

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
        """Number of ``(key, row id)`` pairs inserted."""
        return self._entries
