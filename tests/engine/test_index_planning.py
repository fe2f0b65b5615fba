"""Structural access-path selection, guarded scans and build sides.

The planner-level contract of the index subsystem: which filters become
``IndexScan``/``IndexRangeScan`` nodes (and which must not — policy-UDF
residuals), how a parameter becomes an execute-time probe, how composite
keys are matched, how an index scan sits *under* a policy guard without
ever disclosing a row the guard would have refused, which rows a guard
hands its sequential scan, which input of a hash join builds on each
execution, and what EXPLAIN shows for all of it.

The reference every index path is compared against is a twin: the same
rows and policies with every index dropped.
"""

from __future__ import annotations

import pytest

from repro.engine import Database, persist
from repro.engine.plan import (
    Filter,
    HashJoin,
    IndexRangeScan,
    IndexScan,
    PolicyGuard,
    walk,
)


@pytest.fixture()
def indexed_db():
    database = Database("paths")
    database.execute("create table t (a integer, b integer, c text)")
    database.execute("create table u (a integer, d integer)")
    rows = ", ".join(f"({i}, {i * 10}, 'c{i % 4}')" for i in range(40))
    database.execute(f"insert into t values {rows}")
    database.execute("insert into u values (1, 100), (2, 200)")
    database.execute("create index i_b on t (b)")
    database.execute("create index i_c on t (c) using hash")
    return database


def _drop_indexes(database):
    """Drop every index: the same rows and policies, and no access path
    but the scan."""
    for definition in database.indexes.definitions():
        database.execute(f"drop index {definition.name}")
    return database


def _twin(database):
    """A copy of ``database``'s rows with every index dropped."""
    return _drop_indexes(persist.from_document(persist.to_document(database)))


def _block(database, sql):
    prepared = database.prepare(sql)
    _, arms = prepared._arms()
    assert len(arms) == 1
    return arms[0].block


def _find(block, node_type):
    """The block's IR nodes of ``node_type``: WHERE filter and FROM tree."""
    top = block.source_root if block.filter is None else block.filter
    return [node for node in walk(top) if isinstance(node, node_type)]


class TestAccessPathSelection:
    def test_equality_filter_becomes_an_index_scan(self, indexed_db) -> None:
        block = _block(indexed_db, "select a from t where b = 100")
        scans = _find(block, IndexScan)
        assert len(scans) == 1
        assert scans[0].index_name == "i_b"

    def test_range_filter_becomes_an_index_range_scan(self, indexed_db) -> None:
        sql = "select a from t where b > 100 and b <= 140"
        block = _block(indexed_db, sql)
        scans = _find(block, IndexRangeScan)
        assert len(scans) == 1
        # The two bound conjuncts become one interval, and both stay
        # matched (the recheck filter keeps each).
        scan = scans[0]
        assert (scan.lower, scan.upper) == (100, 140)
        assert (scan.lower_inclusive, scan.upper_inclusive) == (False, True)
        assert len(scan.matched) == 2
        assert indexed_db.execute(sql).rows == [(11,), (12,), (13,), (14,)]
        # An empty interval probes nothing, and agrees with the twin.
        empty = "select a from t where b > 140 and b < 100"
        (scan,) = _find(_block(indexed_db, empty), IndexRangeScan)
        assert (scan.lower, scan.upper) == (140, 100)
        assert indexed_db.execute(empty).rows == []
        assert _twin(indexed_db).execute(empty).rows == []

    def test_between_carries_both_bounds(self, indexed_db) -> None:
        block = _block(indexed_db, "select a from t where b between 100 and 140")
        scans = _find(block, IndexRangeScan)
        assert len(scans) == 1
        assert scans[0].lower == 100 and scans[0].lower_inclusive
        assert scans[0].upper == 140 and scans[0].upper_inclusive

    def test_hash_index_serves_equality_only(self, indexed_db) -> None:
        equal = _block(indexed_db, "select a from t where c = 'c1'")
        assert _find(equal, IndexScan)
        ranged = _block(indexed_db, "select a from t where c > 'c1'")
        assert not _find(ranged, IndexScan)

    def test_matched_conjunct_stays_in_the_residual_filter(self, indexed_db) -> None:
        prepared = indexed_db.prepare("select a from t where b = 100")
        _, arms = prepared._arms()
        filters = _find(arms[0].block, Filter)
        assert any(
            any("b" in str(c) for c in (f.conjuncts or [])) for f in filters
        ), "index scans only narrow candidates; the filter still rechecks"

    def test_policy_udf_residuals_disable_index_conversion(self, indexed_db) -> None:
        # Narrowing the rows a policy-function residual sees would change
        # the per-row UDF call count the paper's Figure-6 metric audits.
        indexed_db.policy_function = "abs"
        try:
            block = _block(
                indexed_db, "select a from t where b = 100 and abs(a) >= 0"
            )
        finally:
            indexed_db.policy_function = None
        assert not _find(block, IndexScan)

    def test_unindexed_column_stays_sequential(self, indexed_db) -> None:
        block = _block(indexed_db, "select a from t where a = 3")
        assert not _find(block, IndexScan)

    def test_selection_is_noted(self, indexed_db) -> None:
        prepared = indexed_db.prepare("select a from t where b = 100")
        assert any(
            "access_path_selection" in note
            for note in prepared.optimizer_notes()
        )

    def test_there_is_no_index_mode_to_switch_off(self, indexed_db) -> None:
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="unknown index mode"):
            indexed_db.prepare("select a from t where b = 100", indexes="off")


def _both_modes(database, sql, twin=None):
    """The same statement prepared on ``database`` and on its twin without
    indexes (:func:`_twin` unless one is given)."""
    twin = _twin(database) if twin is None else twin
    return database.prepare(sql), twin.prepare(sql)


class TestParameterProbes:
    """``column = ?`` plans once and probes with each execution's binding."""

    def test_one_plan_probes_with_each_binding(self, indexed_db) -> None:
        on, off = _both_modes(indexed_db, "select a, c from t where b = ?")
        (scan,) = _find(on._arms()[1][0].block, IndexScan)
        assert scan.index_name == "i_b"
        before = indexed_db.indexes.stats()["hits"]
        for value in (100, 0, 390, 105, -1, 100):
            assert on.execute([value]).rows == off.execute([value]).rows
        assert on.execute([100]).rows == [(10, "c2")]
        assert indexed_db.indexes.stats()["hits"] == before + 7

    def test_named_and_mirrored_parameters(self, indexed_db) -> None:
        on, off = _both_modes(indexed_db, "select a from t where :key = c")
        assert _find(on._arms()[1][0].block, IndexScan)
        for value in ("c1", "c3", "nope"):
            assert on.execute({"key": value}).rows == off.execute({"key": value}).rows

    def test_null_binding_matches_nothing(self, indexed_db) -> None:
        indexed_db.execute("insert into t values (99, null, 'c0')")
        on, off = _both_modes(indexed_db, "select a from t where b = ?")
        assert on.execute([None]).rows == off.execute([None]).rows == []

    def test_type_mismatched_binding_keeps_scan_semantics(self, indexed_db) -> None:
        from repro.errors import TypeMismatchError

        # The tree cannot order 'x' against its integer keys: the probe
        # degrades to the full scan and the recheck raises what a
        # sequential scan raises.
        on, off = _both_modes(indexed_db, "select a from t where b = ?")
        for prepared in (on, off):
            with pytest.raises(TypeMismatchError):
                prepared.execute(["x"])
        # A coercing comparison (integer column, float binding) still hits.
        assert on.execute([100.0]).rows == off.execute([100.0]).rows == [(10,)]

    def test_unbound_parameter_is_reported_not_probed(self, indexed_db) -> None:
        from repro.errors import ExecutionError

        on, off = _both_modes(indexed_db, "select a from t where b = ?")
        for prepared in (on, off):
            with pytest.raises(ExecutionError, match="missing values"):
                prepared.execute()

    def test_index_dropped_between_prepare_and_execute(self, indexed_db) -> None:
        on, off = _both_modes(indexed_db, "select a from t where b = ?")
        assert on.execute([100]).rows == [(10,)]
        indexed_db.execute("drop index i_b")
        for value in (100, 110, 5):
            assert on.execute([value]).rows == off.execute([value]).rows


class TestCompositeKeys:
    @pytest.fixture()
    def composite_db(self, indexed_db):
        indexed_db.execute("create index i_cb on t (c, b)")
        indexed_db.execute("drop index i_b")
        indexed_db.execute("drop index i_c")
        return indexed_db

    def test_full_key_is_one_tuple_probe(self, composite_db) -> None:
        on, off = _both_modes(
            composite_db, "select a from t where b = ? and c = 'c2'"
        )
        (scan,) = _find(on._arms()[1][0].block, IndexScan)
        assert scan.index_name == "i_cb"
        assert scan.columns == ("c", "b")  # index order, not WHERE order
        assert len(scan.matched) == 2
        for value in (100, 20, 110, 7):
            assert on.execute([value]).rows == off.execute([value]).rows
        assert on.execute([100]).rows == [(10,)]

    def test_leading_prefix_walks_the_leaves(self, composite_db) -> None:
        on, off = _both_modes(composite_db, "select a from t where c = ?")
        (scan,) = _find(on._arms()[1][0].block, IndexScan)
        assert scan.columns == ("c",)
        for value in ("c0", "c3", "zz"):
            assert on.execute([value]).rows == off.execute([value]).rows
        assert len(on.execute(["c1"]).rows) == 10

    def test_trailing_column_alone_cannot_use_the_index(self, composite_db) -> None:
        block = _block(composite_db, "select a from t where b = 100")
        assert not _find(block, IndexScan)

    def test_range_needs_a_single_column_tree(self, composite_db) -> None:
        block = _block(composite_db, "select a from t where c > 'c1'")
        assert not _find(block, IndexScan)

    def test_composite_hash_needs_the_whole_key(self, indexed_db) -> None:
        indexed_db.execute("create index h_cb on t (c, b) using hash")
        indexed_db.execute("drop index i_c")
        indexed_db.execute("drop index i_b")
        assert not _find(
            _block(indexed_db, "select a from t where c = 'c2'"), IndexScan
        )
        on, off = _both_modes(
            indexed_db, "select a from t where c = 'c2' and b = ?"
        )
        assert _find(on._arms()[1][0].block, IndexScan)
        assert on.execute([100]).rows == off.execute([100]).rows == [(10,)]

    def test_more_bound_columns_beat_fewer(self, indexed_db) -> None:
        # i_b (tree) and i_c (hash) each bind one column; the composite
        # binds both.
        indexed_db.execute("create index i_cb on t (c, b)")
        block = _block(indexed_db, "select a from t where b = 100 and c = 'c2'")
        (scan,) = _find(block, IndexScan)
        assert scan.index_name == "i_cb"


    def test_prefix_probe_finds_rows_with_a_null_later_key(self, composite_db) -> None:
        composite_db.execute("insert into t values (500, null, 'c2')")
        on, off = _both_modes(composite_db, "select a from t where c = ?")
        assert _find(on._arms()[1][0].block, IndexScan)
        assert on.execute(["c2"]).rows == off.execute(["c2"]).rows
        assert (500,) in on.execute(["c2"]).rows
        # Appended later: the carried-forward entry learns about it too.
        for database in (composite_db, off.database):
            database.execute("insert into t values (501, null, 'c2')")
        assert on.execute(["c2"]).rows == off.execute(["c2"]).rows


class TestIndexedDml:
    """UPDATE/DELETE find their rows through the index, evaluate the whole
    predicate on each candidate, and fall back to a scan whenever the index
    cannot be shown to cover the statement."""

    @staticmethod
    def _world():
        database = Database("dml")
        database.execute("create table t (a integer, b integer, c text)")
        rows = ", ".join(f"({i}, {i * 10}, 'c{i % 4}')" for i in range(40))
        database.execute(f"insert into t values {rows}")
        database.execute("insert into t values (90, null, 'c1'), (91, 100, null)")
        database.execute("create index i_b on t (b)")
        database.execute("create index i_cb on t (c, b)")
        calls = []
        database.register_function("chk", lambda value: calls.append(value) or True)
        database.policy_function = "chk"
        return database

    @pytest.mark.parametrize(
        "sql",
        [
            "update t set a = a + 1000 where b = 100 and chk(a)",
            "update t set a = a + 1000 where c = 'c1' and chk(a)",
            "update t set b = b + 1 where c = 'c2' and b = 20 and chk(a)",
            "update t set a = 0 where b between 50 and 120 and chk(a)",
            "update t set a = 0 where b = 12345 and chk(a)",
            "delete from t where b = 100 and chk(a)",
            "delete from t where c = 'c3' and a > 10 and chk(a)",
            "delete from t where 50 > b and chk(a)",
        ],
    )
    def test_same_rows_count_and_checks_as_a_scan(self, sql) -> None:
        on, off = self._world(), _drop_indexes(self._world())
        probes = on.indexes.stats()["hits"]
        assert on.execute(sql) == off.execute(sql)
        assert on.table("t").rows == off.table("t").rows
        assert on.function_calls("chk") == off.function_calls("chk")
        assert on.indexes.stats()["hits"] > probes
        assert off.indexes.stats()["hits"] == 0

    def test_the_index_spares_the_rows_the_key_rejects(self) -> None:
        database = self._world()
        rows_before = list(database.table("t").rows)
        assert database.execute("update t set a = -1 where b = 100 and chk(a)") == 2
        # Checked: the two candidates, not the forty-two rows (the NULL-key
        # row's conjunct is unknown, so it is looked at as a scan would).
        assert database.function_calls("chk") == 3
        changed = [
            i for i, (old, new) in enumerate(zip(rows_before, database.table("t").rows))
            if old is not new
        ]
        assert changed == [10, 41]

    @pytest.mark.parametrize(
        "sql",
        [
            # A guarded subquery ahead of the key runs per row of a scan.
            "update t set a = 0 where a in (select a from u) and b = 100",
            "update t set a = 0 where chk(a) and b = 100",
            # Unknown, not false, on every row: a scan checks them all.
            "update t set a = 0 where b = null and chk(a)",
            # Not a top-level conjunct.
            "update t set a = 0 where b = 100 or b = 110",
            # No index on the column.
            "delete from t where a >= 0",
        ],
    )
    def test_uncovered_statements_scan(self, sql) -> None:
        on, off = self._world(), _drop_indexes(self._world())
        for database in (on, off):
            database.execute("create table u (a integer)")
            database.execute("insert into u values (10), (11)")
        assert on.execute(sql) == off.execute(sql)
        assert on.table("t").rows == off.table("t").rows
        assert on.function_calls("chk") == off.function_calls("chk")
        assert on.indexes.stats()["hits"] == 0

    def test_incomparable_probe_value_scans_and_fails_like_a_scan(self) -> None:
        from repro.errors import ReproError

        on, off = self._world(), _drop_indexes(self._world())
        outcomes = []
        for database in (on, off):
            try:
                outcomes.append(
                    database.execute("update t set a = 0 where b = 'text'")
                )
            except ReproError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1]
        assert on.table("t").rows == off.table("t").rows

    def test_staged_table_scans_and_sees_its_own_writes(self) -> None:
        database = self._world()
        database.begin()
        assert database.execute("update t set b = 777 where b = 100") == 2
        first = database.indexes.stats()["hits"]
        # The overlay is private: no shared index entry describes it.
        assert database.execute("update t set a = -7 where b = 777") == 2
        assert database.execute("delete from t where b = 100") == 0
        assert database.indexes.stats()["hits"] == first == 1
        database.commit()
        assert database.execute("delete from t where b = 777") == 2
        assert database.indexes.stats()["hits"] == 2


class TestIndexScanUnderPolicyGuard:
    """Access paths below the guard never widen what the guard lets out.

    The world's purpose sees some patients and not others; every key of
    the table is looked up through one prepared, enforced plan — the row
    whose key matches but whose policy fails must not come back.
    """

    PURPOSE = "p6"
    SQL = "select watch_id, timestamp, beats from sensed_data where watch_id = ? and timestamp = ?"

    @staticmethod
    def _world(patients=12, samples=4):
        from repro.workload import apply_experiment_policies, build_patients_scenario

        instance = build_patients_scenario(patients=patients, samples_per_patient=samples)
        apply_experiment_policies(instance, selectivity=0.5, seed=7)
        instance.database.execute(
            "create index i_watch_ts on sensed_data (watch_id, timestamp)"
        )
        return instance

    def _rewritten(self, instance) -> str:
        return instance.monitor.execute_with_report(
            self.SQL, self.PURPOSE, params=["watch0", 1]
        ).rewritten_sql

    @pytest.fixture(scope="class")
    def guarded(self):
        """The indexed world, its enforced point lookup and its twin."""
        instance = self._world()
        twin = self._world()
        _drop_indexes(twin.database)
        return instance, self._rewritten(instance), twin

    def test_every_key_agrees_with_the_full_scan(self, guarded) -> None:
        instance, rewritten, twin = guarded
        database = instance.database
        on, off = _both_modes(database, rewritten, twin.database)
        block = on._arms()[1][0].block
        (guard,) = _find(block, PolicyGuard)
        assert isinstance(guard.scan, IndexScan)
        assert "IndexScan" in "\n".join(on.describe())

        keys = [row[:2] for row in database.table("sensed_data").rows]
        visible = {
            row[:2]
            for row in instance.monitor.execute(
                "select watch_id, timestamp from sensed_data", self.PURPOSE
            ).rows
        }
        assert visible and len(visible) < len(keys)
        before = database.indexes.stats()["hits"]
        for key in keys:
            found = on.execute(list(key)).rows
            assert found == off.execute(list(key)).rows
            assert [row[:2] for row in found] == ([key] if key in visible else [])
        assert database.indexes.stats()["hits"] == before + len(keys)
        assert twin.database.indexes.stats()["hits"] == 0

    def test_prefix_probe_under_the_guard(self, guarded) -> None:
        instance, _, twin = guarded
        for watch in ("watch0", "watch1", "watch2", "watch3", "nope"):
            sql = f"select timestamp, beats from sensed_data where watch_id = '{watch}'"
            on, off = (
                world.monitor.execute_with_report(sql, self.PURPOSE)
                for world in (instance, twin)
            )
            assert on.result.rows == off.result.rows
            assert on.compliance_checks == off.compliance_checks
            assert on.costs["index.hit"] == 1 and off.costs["index.hit"] == 0

    def test_dropped_index_falls_back_to_positions(self) -> None:
        instance = self._world(patients=8, samples=3)
        twin = self._world(patients=8, samples=3)
        _drop_indexes(twin.database)
        database = instance.database
        on, off = _both_modes(database, self._rewritten(instance), twin.database)
        database.execute("drop index i_watch_ts")
        for row in database.table("sensed_data").rows:
            assert on.execute(list(row[:2])).rows == off.execute(list(row[:2])).rows

    def test_explain_analyze_counts_rows_against_the_index_scan(self, guarded) -> None:
        import re

        instance, _, _ = guarded
        lines = [
            row[0]
            for row in instance.monitor.explain(
                self.SQL, self.PURPOSE, params=["watch0", 1], analyze=True
            ).rows
        ]
        (scan,) = [line for line in lines if line.strip().startswith("IndexScan")][-1:]
        assert re.search(r"\(rows=1\b", scan), scan
        guard = lines[lines.index(scan) - 1]
        assert guard.strip().startswith("PolicyGuard") and "(rows=" in guard

    def test_explain_analyze_seq_scan_reads_only_the_passing_rows(
        self, guarded
    ) -> None:
        import re

        instance, _, _ = guarded
        database = instance.database
        table = database.table("sensed_data")
        sql = "select watch_id, beats from sensed_data"
        rewritten = instance.monitor.execute_with_report(
            sql, self.PURPOSE
        ).rewritten_sql
        (guard,) = _find(_block(database, rewritten), PolicyGuard)
        assert not isinstance(guard.scan, IndexScan)
        passing = database.policy_bitmaps.passing_ids(
            table,
            database.policy_column,
            tuple(call.args[0].bits for call in guard.guards),
            database.functions,
            database.policy_function,
        )
        assert 0 < len(passing) < len(table)
        counts = {}
        for row in instance.monitor.explain(sql, self.PURPOSE, analyze=True).rows:
            found = re.search(r"\(rows=(\d+)", row[0])
            if found and row[0].strip().startswith(("PolicyGuard", "SeqScan")):
                counts[row[0].split()[0]] = int(found[1])
        assert counts == {"PolicyGuard": len(passing), "SeqScan": len(passing)}


class TestBuildSideSelection:
    """An INNER hash join on the full pipeline builds on whichever input
    turns out smaller, on each execution (ties: the right input).  Output
    follows the probe input's row order, which shows the choice."""

    def test_no_statistics_builds_the_smaller_side(self) -> None:
        database = Database()
        database.execute("create table t (a integer)")
        database.execute("create table u (a integer)")
        database.execute("insert into t values (3), (1)")
        database.execute("insert into u values (1), (2), (3)")
        sql = "select t.a from t join u on t.a = u.a"
        block = _block(database, sql)
        assert [j.build_side for j in _find(block, HashJoin)] == ["smaller"]
        assert not any("build side" in note for note in block.notes)
        assert "build" not in "\n".join(database.prepare(sql).describe())
        # t (2 rows) builds, so u's order shows; the off pipeline builds u.
        assert database.query(sql).rows == [(1,), (3,)]
        assert database.query(sql, optimizer="off").rows == [(3,), (1,)]
        swapped = "select t.a from u join t on u.a = t.a"
        assert database.query(swapped).rows == [(1,), (3,)]
        # A derived table is measured like any other input.
        derived = "select t.a from t join (select a from u) d on t.a = d.a"
        assert [j.build_side for j in _find(_block(database, derived), HashJoin)] == [
            "smaller"
        ]
        assert database.query(derived).rows == [(1,), (3,)]
        # Outer joins and the off pipeline never flip.
        outer = _block(database, "select t.a from t left join u on t.a = u.a")
        assert [j.build_side for j in _find(outer, HashJoin)] == ["right"]
        off = database.prepare(sql, optimizer="off")
        assert [j.build_side for j in _find(off._arms()[1][0].block, HashJoin)] == [
            "right"
        ]

    def test_smaller_left_side_becomes_the_build_side(self) -> None:
        database = Database()
        database.execute("create table small (a integer)")
        database.execute("create table big (a integer)")
        database.execute("insert into small values (2), (1)")
        rows = ", ".join(f"({i})" for i in reversed(range(50)))
        database.execute(f"insert into big values {rows}")
        sql = "select small.a from small join big on small.a = big.a"
        assert database.query(sql).rows == [(2,), (1,)]  # big's order
        flipped = "select small.a from big join small on big.a = small.a"
        assert database.query(flipped).rows == [(2,), (1,)]
        # Equal inputs: the right one builds, the left one's order shows.
        database.execute("create table twin (a integer)")
        database.execute("insert into twin values (1), (2)")
        tie = "select small.a from small join twin on small.a = twin.a"
        assert database.query(tie).rows == [(2,), (1,)]
        assert database.query(
            "select twin.a from twin join small on twin.a = small.a"
        ).rows == [(1,), (2,)]

    def test_flipped_join_returns_the_same_rows(self) -> None:
        database = Database()
        database.execute("create table small (a integer)")
        database.execute("create table big (a integer, v integer)")
        database.execute("insert into small values (1), (3), (null)")
        # Duplicate and NULL keys on the big side: the flipped build is
        # unique, the reference's build buckets its repeated keys.
        rows = ", ".join(f"({i % 25}, {i * 10})" for i in range(50))
        database.execute(f"insert into big values {rows}, (null, 0)")
        sql = "select small.a, big.v from small join big on small.a = big.a"
        flipped = database.query(sql).rows
        reference = database.query(sql, optimizer="off").rows
        assert flipped == [(1, 10), (3, 30), (1, 260), (3, 280)]  # big's order
        assert sorted(flipped) == sorted(reference)
        outer = "select small.a, big.v from small left join big on small.a = big.a"
        assert _find(_block(database, outer), HashJoin)[0].build_side == "right"

    def test_outer_joins_never_flip(self) -> None:
        database = Database()
        database.execute("create table small (a integer)")
        database.execute("create table big (a integer)")
        database.execute("insert into small values (3), (1)")
        rows = ", ".join(f"({i})" for i in range(50))
        database.execute(f"insert into big values {rows}")
        sql = "select small.a from small left join big on small.a = big.a"
        joins = _find(_block(database, sql), HashJoin)
        assert joins and joins[0].build_side == "right"
        assert database.query(sql).rows == [(3,), (1,)]  # small probes
        right = "select big.a from big right join small on big.a = small.a"
        assert _find(_block(database, right), HashJoin)[0].build_side == "right"
        assert database.query(right).rows == [(1,), (3,)]  # big probes


class TestExplainSurface:
    def test_explain_shows_the_access_path(self, indexed_db) -> None:
        prepared = indexed_db.prepare("select a from t where b = 100")
        text = "\n".join(prepared.describe())
        assert "IndexScan" in text
        assert "using i_b" in text
        assert "est=" not in text

    def test_explain_analyze_reports_index_counters(self) -> None:
        from repro.fuzz.scenario import ScenarioSpec, build_fuzz_scenario

        world = build_fuzz_scenario(ScenarioSpec(index_count=1))
        table = world.database.indexes.definitions()[0].table
        result = world.monitor.explain(
            f"select * from {table}", world.purposes[0], analyze=True
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "index_hits=" in text
