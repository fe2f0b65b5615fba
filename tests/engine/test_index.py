"""The secondary-index subsystem: structures and catalog.

Covers the B+-tree and hash structures in isolation and the
:class:`IndexManager` catalog lifecycle with its lazy maintenance (entries
follow the visible rows, moving a row id whose key changed, and rebuild
only for a shorter list or another schema).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Database, txn_scope
from repro.engine.index import (
    BTreeIndex,
    HashIndex,
    IndexDefinition,
)
from repro.engine.types import BitString
from repro.errors import CatalogError, ExecutionError


class TestBTreeIndex:
    def test_point_search_after_splits(self) -> None:
        index = BTreeIndex(order=4)
        keys = list(range(500))
        random.Random(7).shuffle(keys)
        for key in keys:
            index.insert(key, key * 10)
        assert index.height > 1
        assert len(index) == 500
        for key in (0, 123, 499):
            assert index.search(key) == [key * 10]
        assert index.search(500) == []

    def test_duplicate_keys_share_one_posting_list(self) -> None:
        # Builders insert in ascending row-id order; the posting list
        # preserves it, so equal-key row ids come back ascending.
        index = BTreeIndex()
        for row_id in (3, 7, 9):
            index.insert("k", row_id)
        assert index.search("k") == [3, 7, 9]
        assert index.entries == 3
        assert len(index) == 1

    def test_range_bounds(self) -> None:
        index = BTreeIndex(order=4)
        for key in range(20):
            index.insert(key, key)
        assert index.range(5, 8) == [5, 6, 7, 8]
        assert index.range(5, 8, lower_inclusive=False) == [6, 7, 8]
        assert index.range(5, 8, upper_inclusive=False) == [5, 6, 7]
        assert index.range(None, 2) == [0, 1, 2]
        assert index.range(17, None) == [17, 18, 19]
        assert index.range(8, 5) == []

    def test_items_iterate_in_key_order(self) -> None:
        index = BTreeIndex(order=4)
        for key in (30, 10, 20, 10):
            index.insert(key, key)
        assert [key for key, _ in index.items()] == [10, 20, 30]

    def test_prefix_walks_the_leaves_while_the_prefix_matches(self) -> None:
        index = BTreeIndex(order=4)
        pairs = [(a, b) for a in range(12) for b in range(7)]
        random.Random(3).shuffle(pairs)
        # Row ids are the shuffled positions: a prefix's postings come back
        # in row order, not key order, across several leaves.
        for row_id, key in enumerate(pairs):
            index.insert(key, row_id)
        assert index.height > 1
        for a in (0, 5, 11):
            expected = [i for i, key in enumerate(pairs) if key[0] == a]
            assert index.prefix((a,)) == expected
        assert index.prefix((12,)) == []
        assert index.prefix((3, 4)) == index.search((3, 4))

    def test_removing_a_keys_last_id_drops_the_key(self) -> None:
        index = BTreeIndex(order=4)
        for key in range(20):
            index.insert((key, key % 2), key)
        index.insert((7, 1), 40)
        index.remove((7, 1), 7)
        assert index.search((7, 1)) == [40]
        assert (len(index), index.entries) == (20, 20)
        index.remove((7, 1), 40)
        assert (len(index), index.entries) == (19, 19)
        assert index.search((7, 1)) == []
        assert index.range((6, 0), (8, 0)) == [6, 8]
        assert index.prefix((7,)) == []
        assert [key for key, _ in index.items()] == [
            (key, key % 2) for key in range(20) if key != 7
        ]

    def test_an_emptied_leaf_still_routes_inserts_and_lookups(self) -> None:
        index = BTreeIndex(order=4)
        for key in range(40):
            index.insert(key, key)
        assert index.height > 1
        doomed = range(10, 20)  # spans at least one whole leaf
        for key in doomed:
            index.remove(key, key)
        assert len(index) == 30
        assert all(index.search(key) == [] for key in doomed)
        assert index.range(5, 25) == [5, 6, 7, 8, 9, 20, 21, 22, 23, 24, 25]
        for key in doomed:
            index.insert(key, key + 100)
        assert all(index.search(key) == [key + 100] for key in doomed)
        assert index.range(9, 11) == [9, 110, 111]
        assert [key for key, _ in index.items()] == list(range(40))

    def test_an_out_of_order_insert_keeps_the_posting_list_ascending(
        self,
    ) -> None:
        index = BTreeIndex()
        for row_id in (2, 9, 5, 0, 7):
            index.insert("k", row_id)
        assert index.search("k") == [0, 2, 5, 7, 9]
        assert index.range("a", "z") == [0, 2, 5, 7, 9]


class TestHashIndex:
    def test_search_and_postings_order(self) -> None:
        index = HashIndex()
        for row_id in (1, 3, 5):
            index.insert("a", row_id)
        index.insert("b", 2)
        assert index.search("a") == [1, 3, 5]
        assert index.search("b") == [2]
        assert index.search("missing") == []
        assert len(index) == 2
        assert index.entries == 4

    def test_moving_an_id_keeps_both_lists_ascending(self) -> None:
        # Both structures move ids the same way: a RowIndex following a
        # key-changing update removes the id from one key, inserts it at
        # another.
        for index in (HashIndex(), BTreeIndex(order=4)):
            for row_id in (1, 3, 5):
                index.insert("a", row_id)
            index.insert("b", 4)
            index.remove("a", 3)
            index.insert("b", 3)
            index.remove("b", 4)
            index.insert("a", 4)
            assert index.search("a") == [1, 4, 5] and index.search("b") == [3]
            index.remove("b", 3)
            # A key left without ids is gone.
            assert len(index) == 1 and index.entries == 3
            assert index.search("b") == []


@pytest.fixture
def indexed_db() -> Database:
    database = Database("idx")
    database.execute(
        "create table t (id integer primary key, grp text, score integer, "
        "policy bit varying)"
    )
    database.policy_column = "policy"
    masks = (BitString.from_bits("01"), BitString.from_bits("10"), None)
    for i in range(30):
        database.execute(
            f"insert into t values ({i}, 'g{i % 3}', {i * 2}, null)"
        )
    table = database.table("t")
    for mask_index, mask in enumerate(masks):
        table.set_column_value(
            "policy", mask, lambda row, m=mask_index: row[0] % 3 == m
        )
    return database


class TestIndexManagerCatalog:
    def test_create_and_describe_via_ddl(self, indexed_db) -> None:
        indexed_db.execute("create index i_grp on t (grp) using hash")
        indexed_db.execute("create index i_score on t (score)")
        definitions = {d.name: d for d in indexed_db.indexes.definitions()}
        assert definitions["i_grp"].kind == "hash"
        assert definitions["i_score"].kind == "btree"
        assert indexed_db.indexes.for_table("t") == list(definitions.values())

    def test_duplicate_name_is_rejected(self, indexed_db) -> None:
        indexed_db.execute("create index i on t (grp)")
        with pytest.raises(CatalogError):
            indexed_db.execute("create index i on t (score)")

    def test_unknown_table_and_column_are_rejected(self, indexed_db) -> None:
        with pytest.raises(CatalogError):
            indexed_db.execute("create index i on nope (grp)")
        with pytest.raises(CatalogError):
            indexed_db.execute("create index i on t (nope)")

    def test_unknown_kind_is_rejected(self, indexed_db) -> None:
        with pytest.raises(CatalogError):
            indexed_db.indexes.create(
                IndexDefinition(name="i", table="t", columns=("grp",), kind="gin")
            )

    def test_drop_unknown_raises(self, indexed_db) -> None:
        with pytest.raises(CatalogError):
            indexed_db.execute("drop index nope")

    def test_drop_table_drops_its_indexes(self, indexed_db) -> None:
        indexed_db.execute("create index i on t (grp)")
        indexed_db.execute("drop table t")
        assert len(indexed_db.indexes) == 0


class TestIndexMaintenance:
    def test_lookup_reflects_rows_inserted_after_build(self, indexed_db) -> None:
        indexed_db.execute("create index i_score on t (score)")
        manager = indexed_db.indexes
        assert manager.lookup_equal("i_score", 10) == [5]
        before = manager.stats()
        # An autocommit INSERT extends the committed row list *in place*:
        # the list the entry was built from now aliases the longer one, and
        # only the recorded built length says row 30 is not indexed yet.
        indexed_db.execute("insert into t values (100, 'g0', 10, null)")
        assert manager.lookup_equal("i_score", 10) == [5, 30]
        after = manager.stats()
        assert after["rebuilds"] == before["rebuilds"]
        assert after["carried_forward"] == before["carried_forward"] + 1

    def test_entry_is_reused_while_version_is_unchanged(self, indexed_db) -> None:
        indexed_db.execute("create index i_score on t (score)")
        manager = indexed_db.indexes
        manager.lookup_equal("i_score", 10)
        rebuilds = manager.stats()["rebuilds"]
        manager.lookup_equal("i_score", 12)
        manager.lookup_range("i_score", 0, 6)
        assert manager.stats()["rebuilds"] == rebuilds

    def test_range_lookup_requires_a_btree(self, indexed_db) -> None:
        indexed_db.execute("create index i_grp on t (grp) using hash")
        with pytest.raises(ExecutionError):
            indexed_db.indexes.lookup_range("i_grp", "a", "z")
        # A whole-key "prefix" is an equality probe; a proper one is not.
        indexed_db.execute("create index h_gs on t (grp, score) using hash")
        assert indexed_db.indexes.lookup_prefix("h_gs", ("g1", 8)) == [4]
        with pytest.raises(ExecutionError):
            indexed_db.indexes.lookup_prefix("h_gs", ("g1",))

    def test_composite_full_key_and_prefix_lookups(self, indexed_db) -> None:
        indexed_db.execute("create index i_gs on t (grp, score)")
        manager = indexed_db.indexes
        assert manager.lookup_equal("i_gs", ("g1", 8)) == [4]
        assert manager.lookup_equal("i_gs", ("g1", 10)) == []
        assert manager.lookup_prefix("i_gs", ("g1",)) == list(range(1, 30, 3))
        assert manager.lookup_prefix("i_gs", ("g9",)) == []


class TestEntryRevalidation:
    """A built entry survives every row-list change that keeps it exact.

    ``_delta`` runs one lookup and reports how the manager served it:
    ``(rebuilds, carried_forward)`` since the previous call.
    """

    @pytest.fixture
    def scored(self, indexed_db):
        indexed_db.execute("create index i_score on t (score)")
        manager = indexed_db.indexes
        assert manager.lookup_equal("i_score", 10) == [5]
        return indexed_db, manager

    @staticmethod
    def _delta(manager, before: dict) -> tuple[int, int]:
        after = manager.stats()
        return (
            after["rebuilds"] - before["rebuilds"],
            after["carried_forward"] - before["carried_forward"],
        )

    def test_non_key_update_carries_the_entry_forward(self, scored) -> None:
        database, manager = scored
        before = manager.stats()
        database.execute("update t set grp = 'moved' where id = 5")
        assert manager.lookup_equal("i_score", 10) == [5]
        assert self._delta(manager, before) == (0, 1)
        # The same version again is a plain probe.
        assert manager.lookup_equal("i_score", 12) == [6]
        assert self._delta(manager, before) == (0, 1)

    def test_policy_change_carries_an_unpartitioned_entry(self, scored) -> None:
        database, manager = scored
        before = manager.stats()
        database.table("t").set_column_value(
            "policy", BitString.from_bits("11"), lambda row: row[0] < 10
        )
        assert manager.lookup_equal("i_score", 10) == [5]
        assert self._delta(manager, before) == (0, 1)

    def test_delete_rebuilds(self, scored) -> None:
        database, manager = scored
        before = manager.stats()
        database.execute("delete from t where id = 2")
        assert manager.lookup_equal("i_score", 10) == [4]
        assert self._delta(manager, before) == (1, 0)

    def test_key_changing_update_carries_the_entry_forward(self, scored) -> None:
        # The row id moves from its old key to its new one.
        database, manager = scored
        before = manager.stats()
        database.execute("update t set score = 1000 where id = 5")
        assert manager.lookup_equal("i_score", 10) == []
        assert manager.lookup_equal("i_score", 1000) == [5]
        assert manager.lookup_range("i_score", 8, 12) == [4, 6]
        assert self._delta(manager, before) == (0, 1)

    def test_swapped_keys_at_equal_length_carry(self, scored) -> None:
        # Same length, every key still present — but at other positions.
        database, manager = scored
        before = manager.stats()
        database.execute("update t set score = 22 - score where id in (5, 6)")
        assert manager.lookup_equal("i_score", 10) == [6]
        assert manager.lookup_equal("i_score", 12) == [5]
        assert self._delta(manager, before) == (0, 1)

    def test_key_moving_into_and_out_of_null(self, indexed_db) -> None:
        # A row whose key becomes NULL leaves the structure for the null
        # list, and comes back when its key does.
        indexed_db.execute("create index i_gs on t (grp, score)")
        manager = indexed_db.indexes
        assert manager.lookup_prefix("i_gs", ("g2",)) == list(range(2, 30, 3))
        before = manager.stats()
        indexed_db.execute("update t set score = null where id = 5")
        assert manager.null_key_rows("i_gs") == [5]
        assert manager.lookup_equal("i_gs", ("g2", 10)) == []
        assert manager.lookup_prefix("i_gs", ("g2",)) == list(range(2, 30, 3))
        indexed_db.execute("update t set score = 11 where id = 5")
        assert manager.null_key_rows("i_gs") == []
        assert manager.lookup_equal("i_gs", ("g2", 11)) == [5]
        assert self._delta(manager, before) == (0, 2)

    def test_older_snapshot_beside_a_newer_one(self, scored) -> None:
        database, manager = scored
        reader = database.transactions.begin()
        database.execute("update t set grp = 'late' where id = 5")
        before = manager.stats()
        for _ in range(2):
            # Latest state, then the pinned older one: the two row lists
            # share every tuple but row 5, whose key is the same in both.
            assert manager.lookup_equal("i_score", 10) == [5]
            with txn_scope(reader):
                assert manager.lookup_equal("i_score", 10) == [5]
                assert database.table("t").rows[5][1] == "g2"
        assert self._delta(manager, before) == (0, 4)
        # An insert the old snapshot cannot see: the newer list is carried
        # forward, the shorter older one can only be served by a rebuild.
        database.execute("insert into t values (100, 'g0', 10, null)")
        assert manager.lookup_equal("i_score", 10) == [5, 30]
        with txn_scope(reader):
            assert manager.lookup_equal("i_score", 10) == [5]
        assert manager.lookup_equal("i_score", 10) == [5, 30]
        database.transactions.rollback(reader)

    def test_rolled_back_staged_write_never_leaks(self, scored) -> None:
        database, manager = scored
        database.begin()
        database.execute("update t set score = 1000 where id = 5")
        database.execute("insert into t values (100, 'g0', 10, null)")
        assert manager.lookup_equal("i_score", 10) == [30]
        assert manager.lookup_equal("i_score", 1000) == [5]
        database.rollback()
        assert manager.lookup_equal("i_score", 10) == [5]
        assert manager.lookup_equal("i_score", 1000) == []

    def test_concurrent_lookups_across_snapshots_stay_exact(self) -> None:
        """Readers at the latest state and at a pinned older snapshot share
        one entry that a writer keeps growing: lookups alternate between
        carrying the tree forward (in-place inserts *between* the probed
        keys, leaf splits) and rebuilding it for the shorter list.  Rows
        0–39 never move and never change key, so their lookups have one
        right answer at any moment.
        """
        import sys
        import threading

        database = Database("stress")
        database.execute("create table m (id integer, reading double precision)")
        database.table("m").append_rows((i, float(i)) for i in range(40))
        database.execute("create index i_reading on m (reading)")
        manager = database.indexes
        pinned = database.transactions.begin()
        stop = threading.Event()
        wrong: list = []

        def reader(seed: int, txn) -> None:
            rng = random.Random(seed)
            with txn_scope(txn):
                while not stop.is_set():
                    row_id = rng.randrange(40)
                    found = manager.lookup_equal("i_reading", float(row_id))
                    if found != [row_id]:
                        wrong.append((seed, row_id, found))
                        return

        readers = [
            threading.Thread(target=reader, args=(seed, txn))
            for seed, txn in enumerate([None, pinned, None, pinned, None, pinned])
        ]
        rng = random.Random(17)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for step in range(300):
                database.execute(
                    f"insert into m values ({1000 + step}, {rng.uniform(0, 39)!r})"
                )
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
            database.transactions.rollback(pinned)
        assert not any(thread.is_alive() for thread in readers)
        assert wrong == []
        stats = manager.stats()
        assert stats["carried_forward"] > 0 and stats["rebuilds"] > 1
        assert len(manager.lookup_range("i_reading", 0.0, 39.0)) == 340

    def test_schema_change_rebuilds(self, scored) -> None:
        database, manager = scored
        before = manager.stats()
        database.execute("alter table t drop column grp")
        assert manager.lookup_equal("i_score", 10) == [5]
        assert self._delta(manager, before) == (1, 0)
