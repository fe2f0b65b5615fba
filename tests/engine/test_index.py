"""The secondary-index subsystem: the structure and the catalog.

Covers :class:`RowIndex` in isolation under the lookups each index kind
is offered, the probe-type rule (a probe the held keys cannot be compared
with observes what the unindexed table does), and the
:class:`IndexManager` catalog lifecycle with its lazy maintenance (entries
follow the visible rows, moving a row id whose key changed, and rebuild
only for a shorter list or another schema).
"""

from __future__ import annotations

import random

import pytest

from repro.engine import Database, txn_scope
from repro.engine.index import INDEX_KINDS, IndexDefinition, RowIndex
from repro.engine.types import BitString
from repro.errors import CatalogError, ExecutionError, ReproError, TypeMismatchError


def _keyed(keys, columns: str = "k integer"):
    """``(database, table, index)``: a table ``t (id, <columns>)`` holding
    one row per key (row id = position), and a RowIndex over its key
    columns."""
    database = Database("rowindex")
    database.execute(f"create table t (id integer, {columns})")
    table = database.table("t")
    table.append_rows(
        (row_id, *(key if isinstance(key, tuple) else (key,)))
        for row_id, key in enumerate(keys)
    )
    names = [column.split()[0] for column in columns.split(",")]
    return database, table, RowIndex(table.schema, names, table.rows)


def _commit(database, table, index: RowIndex, sql: str) -> None:
    """Run ``sql`` and make ``index`` follow the rows it committed."""
    database.execute(sql)
    assert index.follow(table, table.rows)


class TestBTreeIndex:
    """A RowIndex under the lookups a ``btree`` index is offered:
    equality, ranges and composite prefixes."""

    def test_point_search_over_shuffled_keys(self) -> None:
        keys = list(range(500))
        random.Random(7).shuffle(keys)
        _, _, index = _keyed(keys)
        assert len(index.postings) == 500
        for key in (0, 123, 499):
            assert index.search(key) == [keys.index(key)]
        assert index.search(500) == []

    def test_duplicate_keys_share_one_posting_list(self) -> None:
        # Rows are indexed in ascending row-id order, so equal-key row ids
        # come back ascending.
        _, _, index = _keyed(["j", "j", "j", "k", "j", "j", "j", "k", "j", "k"], "k text")
        assert index.search("k") == [3, 7, 9]
        assert len(index.postings) == 2

    def test_range_bounds(self) -> None:
        _, _, index = _keyed(range(20))
        assert index.range(5, 8) == [5, 6, 7, 8]
        assert index.range(5, 8, lower_inclusive=False) == [6, 7, 8]
        assert index.range(5, 8, upper_inclusive=False) == [5, 6, 7]
        assert index.range(None, 2) == [0, 1, 2]
        assert index.range(17, None) == [17, 18, 19]
        assert index.range(8, 5) == []
        assert index.range(20, None) == []

    def test_items_iterate_in_key_order(self) -> None:
        # The distinct keys ranges and prefixes bisect, each once.
        _, _, index = _keyed([30, 10, 20, 10])
        keys, lists = index._ordered()
        assert keys == [10, 20, 30] and lists == [[1, 3], [2], [0]]

    def test_prefix_matches_one_run_of_the_sorted_keys(self) -> None:
        pairs = [(a, b) for a in range(12) for b in range(7)]
        random.Random(3).shuffle(pairs)
        # Row ids are the shuffled positions: a prefix's postings come back
        # in row order, not key order.
        _, _, index = _keyed(pairs, "a integer, b integer")
        for a in (0, 5, 11):
            expected = [i for i, key in enumerate(pairs) if key[0] == a]
            assert index.prefix((a,)) == expected
        assert index.prefix((12,)) == []
        assert index.prefix((-1,)) == []
        assert index.prefix((3, 4)) == index.search((3, 4))

    def test_removing_a_keys_last_id_drops_the_key(self) -> None:
        database, table, index = _keyed(
            [(key, key % 2) for key in range(20)] + [(7, 1)],
            "a integer, b integer",
        )
        _commit(database, table, index, "update t set a = 70 where id = 7")
        assert index.search((7, 1)) == [20]
        assert len(index.postings) == 21
        _commit(database, table, index, "update t set a = 71 where id = 20")
        assert len(index.postings) == 21
        assert index.search((7, 1)) == []
        assert index.range((6, 0), (8, 0)) == [6, 8]
        assert index.prefix((7,)) == []

    def test_keys_that_leave_and_return_are_found(self) -> None:
        database, table, index = _keyed(range(40))
        assert index.range(5, 25) == list(range(5, 26))
        _commit(
            database, table, index,
            "update t set k = k + 100 where id between 10 and 19",
        )
        assert len(index.postings) == 40
        assert all(index.search(key) == [] for key in range(10, 20))
        assert index.range(5, 25) == [5, 6, 7, 8, 9, *range(20, 26)]
        assert index.range(110, 111) == [10, 11]
        _commit(
            database, table, index,
            "update t set k = k - 100 where id between 10 and 19",
        )
        assert all(index.search(key) == [key] for key in range(10, 20))
        assert index.range(9, 11) == [9, 10, 11]
        assert index._ordered()[0] == list(range(40))

    def test_an_out_of_order_insert_keeps_the_posting_list_ascending(
        self,
    ) -> None:
        # Ids 0 and 5 move to the key 4 after ids 2 and 9 hold it.
        database, table, index = _keyed([1, 2, 4, 3, 4, 1, 2, 3, 2, 4])
        _commit(database, table, index, "update t set k = 4 where id in (0, 5)")
        assert index.search(4) == [0, 2, 4, 5, 9]
        assert index.range(3, 9) == [0, 2, 3, 4, 5, 7, 9]


class TestHashIndex:
    """A RowIndex under the one lookup a ``hash`` index is offered:
    equality."""

    def test_search_and_postings_order(self) -> None:
        _, _, index = _keyed(["x", "a", "b", "a", "x", "a"], "k text")
        assert index.search("a") == [1, 3, 5]
        assert index.search("b") == [2]
        assert index.search("missing") == []
        assert len(index.postings) == 3

    def test_moving_an_id_keeps_both_lists_ascending(self) -> None:
        # A RowIndex following a key-changing update removes the id from
        # one key and inserts it at another.
        database, table, index = _keyed(["x", "a", "x", "a", "b", "a"], "k text")
        _commit(
            database, table, index,
            "update t set k = case when id = 3 then 'b' else 'a' end "
            "where id in (3, 4)",
        )
        assert index.search("a") == [1, 4, 5] and index.search("b") == [3]
        _commit(database, table, index, "update t set k = 'x' where id = 3")
        # A key left without ids is gone.
        assert len(index.postings) == 2
        assert index.search("b") == []


#: Probes the held keys cannot be compared with: ``(index columns,
#: statement)`` over ``t (a integer, b text, c integer)`` holding
#: a = 5..9.  Each must observe what the table without the index does —
#: the error, or (where an earlier conjunct empties the rows first) the
#: empty result.
MISTYPED_PROBES = (
    ("a", "select a from t where a = 'x' and b = 'none'"),
    ("a", "select a from t where a = true"),
    ("a", "select a from t where a < true"),
    ("a", "select a from t where b = 'none' and a = 'x'"),
    ("b, c", "select a from t where b = 'x5' and c = true"),
    ("b, c", "select a from t where b = 'x5' and c = 5"),
)


@pytest.mark.parametrize("kind", INDEX_KINDS)
@pytest.mark.parametrize("columns, sql", MISTYPED_PROBES)
def test_a_mistyped_probe_observes_what_the_unindexed_table_does(
    kind: str, columns: str, sql: str
) -> None:
    def outcome(indexed: bool):
        database = Database("probe")
        database.execute("create table t (a integer, b text, c integer)")
        for a in range(5, 10):
            database.execute(f"insert into t values ({a}, 'x{a}', {a})")
        if indexed:
            database.execute(f"create index i on t ({columns}) using {kind}")
        try:
            return database.query(sql).rows
        except ReproError as error:
            return type(error)

    assert outcome(True) == outcome(False)


#: A conjunct ahead of the key that raises on rows the probe skips, in a
#: read, a prepared read and both indexed DML paths; and conjuncts ahead of
#: it that cannot raise (the index still serves those).
EARLIER_CONJUNCTS = (
    ("select a from t where b = 5 and a = 100", (), True),
    ("select a from t where b = ? and a = ?", (5, 100), True),
    ("select a from t where c > 1 and b = 5 and a = 100", (), True),
    ("delete from t where b = 5 and a = 100", None, True),
    ("update t set c = 0 where b = 5 and a = 100", None, True),
    ("select a from t where b = 'x6' and a = 6", (), False),
    ("select a from t where b = ? and c >= 6 and a = ?", ("x6", 6), False),
    ("select a from t where a = 100 and b = 5", (), False),
)


@pytest.mark.parametrize("sql, params, raises", EARLIER_CONJUNCTS)
def test_an_index_never_hides_what_an_earlier_conjunct_raises(
    sql: str, params, raises: bool
) -> None:
    def outcome(indexed: bool):
        database = Database("ahead")
        database.execute("create table t (a integer, b text, c integer)")
        for a in range(5, 10):
            database.execute(f"insert into t values ({a}, 'x{a}', {a})")
        if indexed:
            database.execute("create index i on t (a)")
        try:
            if params is None:
                result = database.execute(sql)
            else:
                result = database.prepare(sql).execute(list(params)).rows
        except ReproError as error:
            result = type(error)
        return result, database.indexes.stats()["hits"]

    (indexed, hits), (twin, _) = outcome(True), outcome(False)
    assert indexed == twin
    assert (twin is TypeMismatchError) is raises
    assert hits == (not raises)


def _indexed_database() -> Database:
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


@pytest.fixture
def indexed_db() -> Database:
    return _indexed_database()


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
            indexed_db.create_index(
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

    def test_scans_after_a_key_move_and_a_new_key_match_the_twin(
        self, indexed_db
    ) -> None:
        """A range and a prefix scan sort the keys; an INSERT of a new key
        and key-changing UPDATEs (one adds a score key and removes none)
        must drop that order, not serve it."""
        twin = _indexed_database()
        indexed_db.execute("create index i_score on t (score)")
        indexed_db.execute("create index i_gs on t (grp, score)")
        scans = (
            "select id from t where score between 10 and 40",
            "select id, score from t where grp = 'g1'",
        )
        for sql in scans:
            assert "Index" in indexed_db.explain(sql)
        before = indexed_db.indexes.stats()
        for write in (
            None,
            "insert into t values (100, 'g1', 16, null)",
            "update t set score = 31 where id = 100",
            "update t set score = 16, grp = 'g1' where id = 5",
        ):
            if write is not None:
                indexed_db.execute(write)
                twin.execute(write)
            for sql in scans:
                assert indexed_db.query(sql).rows == twin.query(sql).rows
        after = indexed_db.indexes.stats()
        assert after["rebuilds"] - before["rebuilds"] == 2  # the first scans
        assert after["carried_forward"] - before["carried_forward"] == 6

    def test_schema_change_rebuilds(self, scored) -> None:
        database, manager = scored
        before = manager.stats()
        database.execute("alter table t drop column grp")
        assert manager.lookup_equal("i_score", 10) == [5]
        assert self._delta(manager, before) == (1, 0)
