"""A B+-tree secondary index.

Keys live in the leaves; inner nodes hold separator copies only, and the
leaves are chained left-to-right so a range lookup descends once and then
walks siblings.  Duplicate keys are collapsed into one leaf slot holding
the ascending list of matching row ids.

:meth:`BTreeIndex.remove` takes one ``(key, row id)`` pair out without
rebalancing: a key left without ids leaves its leaf, and a leaf may stay
empty — separators still route through it and the leaf chain skips it.
That is what a :class:`~repro.engine.index.manager.RowIndex` needs to
follow a key-changing update (move the row id from its old key to its
new one); a delete still rebuilds the whole index, so the tree never
drifts far from balanced.

Composite keys are tuples; :meth:`BTreeIndex.prefix` serves equality on a
leading subset of the key columns by walking the leaves while the prefix
matches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator

#: Maximum keys per node before a split.
DEFAULT_ORDER = 32


class _Leaf:
    __slots__ = ("keys", "postings", "next")

    def __init__(self) -> None:
        self.keys: list = []
        self.postings: list[list[int]] = []
        self.next: "_Leaf | None" = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list = []
        self.children: list = []


class BTreeIndex:
    """An order-preserving index from key to ascending row-id posting list."""

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError(f"B-tree order must be at least 4, got {order}")
        self._order = order
        self._root: _Leaf | _Inner = _Leaf()
        self._first: _Leaf = self._root
        self._distinct = 0

    # -- construction ----------------------------------------------------------

    def insert(self, key, row_id: int) -> None:
        """Add one ``(key, row id)`` pair, keeping its posting list ascending."""
        split = self._insert(self._root, key, row_id)
        if split is not None:
            separator, right = split
            root = _Inner()
            root.keys = [separator]
            root.children = [self._root, right]
            self._root = root

    def _insert(self, node, key, row_id: int):
        if isinstance(node, _Leaf):
            slot = bisect_left(node.keys, key)
            if slot < len(node.keys) and node.keys[slot] == key:
                insort(node.postings[slot], row_id)
                return None
            node.keys.insert(slot, key)
            node.postings.insert(slot, [row_id])
            self._distinct += 1
            if len(node.keys) <= self._order:
                return None
            mid = len(node.keys) // 2
            right = _Leaf()
            right.keys = node.keys[mid:]
            right.postings = node.postings[mid:]
            del node.keys[mid:]
            del node.postings[mid:]
            right.next = node.next
            node.next = right
            return right.keys[0], right
        slot = bisect_right(node.keys, key)
        split = self._insert(node.children[slot], key, row_id)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(slot, separator)
        node.children.insert(slot + 1, right)
        if len(node.keys) <= self._order:
            return None
        mid = len(node.keys) // 2
        promoted = node.keys[mid]
        sibling = _Inner()
        sibling.keys = node.keys[mid + 1 :]
        sibling.children = node.children[mid + 1 :]
        del node.keys[mid:]
        del node.children[mid + 1 :]
        return promoted, sibling

    def remove(self, key, row_id: int) -> None:
        """Drop one ``(key, row id)`` pair; a key left without ids leaves
        its leaf (no rebalancing)."""
        leaf = self._leaf_for(key)
        slot = bisect_left(leaf.keys, key)
        ids = leaf.postings[slot]
        del ids[bisect_left(ids, row_id)]
        if not ids:
            del leaf.keys[slot], leaf.postings[slot]
            self._distinct -= 1

    # -- lookups ---------------------------------------------------------------

    def _leaf_for(self, key) -> _Leaf:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def search(self, key) -> list[int]:
        """Row ids (ascending) whose key equals ``key``."""
        leaf = self._leaf_for(key)
        slot = bisect_left(leaf.keys, key)
        if slot < len(leaf.keys) and leaf.keys[slot] == key:
            return list(leaf.postings[slot])
        return []

    def _scan_from(
        self, lower=None, inclusive: bool = True
    ) -> Iterator[tuple[object, list[int]]]:
        """``(key, posting list)`` pairs from ``lower`` on, in key order."""
        if lower is None:
            leaf, slot = self._first, 0
        else:
            leaf = self._leaf_for(lower)
            bisect = bisect_left if inclusive else bisect_right
            slot = bisect(leaf.keys, lower)
        while leaf is not None:
            yield from zip(leaf.keys[slot:], leaf.postings[slot:])
            leaf = leaf.next
            slot = 0

    def range(
        self,
        lower=None,
        upper=None,
        lower_inclusive: bool = True,
        upper_inclusive: bool = True,
    ) -> list[int]:
        """Row ids (ascending) whose key falls inside the bound pair.

        ``None`` bounds are open; the result is sorted by *row id*, not key,
        so an index-range scan emits rows in the same storage order a
        sequential scan plus filter would.
        """
        matches: list[int] = []
        for key, posting in self._scan_from(lower, lower_inclusive):
            if upper is not None and (
                key > upper or (not upper_inclusive and key == upper)
            ):
                break
            matches.extend(posting)
        matches.sort()
        return matches

    def prefix(self, prefix: tuple) -> list[int]:
        """Row ids (ascending) whose composite key starts with ``prefix``.

        A proper prefix sorts immediately before every key it starts, so
        one descent finds the first match and the leaf chain holds the
        rest contiguously.
        """
        width = len(prefix)
        matches: list[int] = []
        for key, posting in self._scan_from(prefix):
            if key[:width] != prefix:
                break
            matches.extend(posting)
        matches.sort()
        return matches

    # -- introspection ---------------------------------------------------------

    def items(self) -> Iterator[tuple[object, list[int]]]:
        """``(key, posting list)`` pairs in ascending key order."""
        return self._scan_from()

    @property
    def height(self) -> int:
        """Levels from root to leaf (a one-leaf tree has height 1)."""
        levels, node = 1, self._root
        while isinstance(node, _Inner):
            levels += 1
            node = node.children[0]
        return levels

    def __len__(self) -> int:
        """Number of distinct keys."""
        return self._distinct

    @property
    def entries(self) -> int:
        """Number of ``(key, row id)`` pairs held (counted on demand)."""
        return sum(len(ids) for _, ids in self.items())
