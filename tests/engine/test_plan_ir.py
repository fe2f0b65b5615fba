"""The logical-plan IR, the rule-based optimizer and the policy bitmaps.

Covers mode resolution (``None`` means on), the FROM tree the planner
builds, each optimizer pass in isolation via the plan it produces, the
distinct-value economics of the bitmap cache,
and the contract that ``optimizer=off`` reproduces the same rows as the
full pipeline.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import Database
from repro.engine.plan import (
    BASELINE_PASSES,
    FULL_PASSES,
    Filter,
    HashJoin,
    IndexScan,
    NestedLoop,
    Optimizer,
    PolicyBitmapCache,
    PolicyGuard,
    Scan,
    check_access_paths,
    resolve_optimizer_mode,
    walk,
)
from repro.sql import ast
from repro.workload import (
    AD_HOC_QUERIES,
    apply_experiment_policies,
    build_patients_scenario,
)


class TestModeResolution:
    def test_default_is_on(self) -> None:
        assert resolve_optimizer_mode(None) == "on"

    def test_case_is_normalized(self) -> None:
        assert resolve_optimizer_mode("OFF") == "off"

    def test_invalid_mode_rejected(self) -> None:
        with pytest.raises(ValueError):
            resolve_optimizer_mode("sideways")

    def test_off_runs_only_the_seed_equivalent_passes(self) -> None:
        database = Database("modes")
        assert Optimizer("off", database).passes == BASELINE_PASSES
        assert Optimizer("on", database).passes == FULL_PASSES
        assert set(BASELINE_PASSES) < set(FULL_PASSES)


@pytest.fixture()
def plan_db():
    database = Database("plans")
    database.execute("create table t (a integer, b integer, c text)")
    database.execute("create table u (a integer, d integer)")
    database.execute(
        "insert into t values (1, 10, 'x'), (2, 20, 'y'), (3, 30, 'z')"
    )
    database.execute("insert into u values (1, 100), (2, 200)")
    return database


def _nodes(block):
    """Every IR node of one block: its WHERE filter, then the FROM tree."""
    return list(walk(block.source_root if block.filter is None else block.filter))


def _block(database, sql, optimizer="on"):
    prepared = database.prepare(sql, optimizer=optimizer)
    _, arms = prepared._arms()
    assert len(arms) == 1
    return arms[0].block


class TestPlanner:
    def test_equi_join_compiles_to_hash_join(self, plan_db) -> None:
        block = _block(plan_db, "select t.a, d from t join u on t.a = u.a")
        assert any(isinstance(node, HashJoin) for node in _nodes(block))
        assert not any(isinstance(node, NestedLoop) for node in _nodes(block))

    def test_non_equi_join_stays_nested_loop(self, plan_db) -> None:
        block = _block(plan_db, "select t.a, d from t join u on t.a < u.a")
        assert any(isinstance(node, NestedLoop) for node in _nodes(block))
        assert not any(isinstance(node, HashJoin) for node in _nodes(block))


class TestPasses:
    def test_predicate_pushdown_claims_the_where(self, plan_db) -> None:
        prepared = plan_db.prepare("select a from t where b > 10", optimizer="on")
        notes = prepared.optimizer_notes()
        assert any(note.startswith("predicate_pushdown:") for note in notes)
        _, (arm,) = prepared._arms()
        pushed = [
            node
            for node in _nodes(arm.block)
            if isinstance(node, Filter) and node.pushed
        ]
        assert pushed and isinstance(pushed[0].input, Scan)

    def test_constant_folding_is_reported_and_correct(self, plan_db) -> None:
        prepared = plan_db.prepare(
            "select a from t where b > 5 + 5", optimizer="on"
        )
        assert any(
            note.startswith("constant_folding:")
            for note in prepared.optimizer_notes()
        )
        assert sorted(prepared.execute().rows) == [(2,), (3,)]

    def test_projection_pruning_narrows_the_scan(self, plan_db) -> None:
        prepared = plan_db.prepare("select a from t where b > 10", optimizer="on")
        _, (arm,) = prepared._arms()
        scans = [n for n in _nodes(arm.block) if isinstance(n, Scan)]
        assert list(scans[0].kept) == ["a", "b"]
        assert sorted(prepared.execute().rows) == [(2,), (3,)]

    def test_pruning_skipped_for_star(self, plan_db) -> None:
        prepared = plan_db.prepare("select * from t", optimizer="on")
        _, (arm,) = prepared._arms()
        scans = [n for n in _nodes(arm.block) if isinstance(n, Scan)]
        assert scans[0].kept is None

    def test_off_mode_emits_no_optimizer_only_notes(self, plan_db) -> None:
        prepared = plan_db.prepare(
            "select a from t where b > 5 + 5", optimizer="off"
        )
        assert not any(
            note.split(":")[0] in ("constant_folding", "projection_pruning")
            for note in prepared.optimizer_notes()
        )


class TestPolicyGuardHoist:
    """End-to-end over the real rewriter: guards leave the filter."""

    def test_rewritten_query_gets_policy_guards(self, policy_scenario) -> None:
        monitor = policy_scenario.monitor
        rewritten = monitor.rewrite("select distinct watch_id from sensed_data", "p6")
        prepared = policy_scenario.database.prepare(rewritten, optimizer="on")
        _, (arm,) = prepared._arms()
        guards = [n for n in _nodes(arm.block) if isinstance(n, PolicyGuard)]
        assert len(guards) == 1
        assert isinstance(guards[0].scan, Scan)
        # The guarded conjunct no longer appears in any row-at-a-time filter.
        residual = [
            n for n in _nodes(arm.block) if isinstance(n, Filter) and not n.is_empty()
        ]
        assert residual == []

    def test_off_mode_keeps_guards_in_the_filter(self, policy_scenario) -> None:
        monitor = policy_scenario.monitor
        rewritten = monitor.rewrite("select distinct watch_id from sensed_data", "p6")
        prepared = policy_scenario.database.prepare(rewritten, optimizer="off")
        _, (arm,) = prepared._arms()
        assert not any(
            isinstance(n, PolicyGuard) for n in _nodes(arm.block)
        )

    def test_both_modes_return_identical_rows(self, policy_scenario) -> None:
        monitor = policy_scenario.monitor
        queries = [
            "select distinct watch_id from sensed_data",
            "select user_id, temperature from users join sensed_data "
            "on users.watch_id = sensed_data.watch_id "
            "where sensed_data.temperature > 37",
            "select food_intolerances, count(user_id) from users "
            "join nutritional_profiles "
            "on users.nutritional_profile_id = nutritional_profiles.profile_id "
            "group by food_intolerances",
        ]
        for sql in queries:
            rewritten = monitor.rewrite(sql, "p6")
            on = policy_scenario.database.prepare(rewritten, optimizer="on")
            off = policy_scenario.database.prepare(rewritten, optimizer="off")
            assert sorted(on.execute().rows) == sorted(off.execute().rows), sql


class TestSemiJoinPushdown:
    """An uncorrelated sub-query conjunct filters its own input below the
    join on the full pipeline, above that input's guard; ``off`` keeps it
    in the residual WHERE."""

    @staticmethod
    def _subquery_filters(block) -> list:
        return [
            node
            for node in _nodes(block)
            if isinstance(node, Filter)
            and node.pushed
            and any(next(ast.iter_subqueries(c), None) for c in node.conjuncts)
        ]

    def test_q6_filters_users_below_the_join_above_its_guard(
        self, policy_scenario
    ) -> None:
        (q6,) = [q for q in AD_HOC_QUERIES if q.name == "q6"]
        rewritten = policy_scenario.monitor.rewrite(q6.sql, "p6")
        database = policy_scenario.database
        on = database.prepare(rewritten, optimizer="on")
        _, (arm,) = on._arms()
        (join,) = [n for n in _nodes(arm.block) if isinstance(n, HashJoin)]
        (semijoin,) = self._subquery_filters(arm.block)
        assert semijoin in (join.left, join.right)
        assert isinstance(semijoin.conjuncts[0], ast.InSubquery)
        assert isinstance(semijoin.input, PolicyGuard)
        assert semijoin.input.binding == "users"
        assert not any(
            isinstance(c, ast.InSubquery) for c in arm.block.filter.conjuncts
        )
        off = database.prepare(rewritten, optimizer="off")
        _, (arm,) = off._arms()
        assert self._subquery_filters(arm.block) == []
        assert any(
            isinstance(c, ast.InSubquery) for c in arm.block.filter.conjuncts
        )
        assert sorted(on.execute().rows) == sorted(off.execute().rows)

    @pytest.mark.parametrize(
        "where",
        [
            "t.b in (select d from u as v where v.a = t.a)",  # this block
            "t.b > (select min(d) from u as v where v.d > b)",  # unqualified
            # ``_correlated`` walks the sub-query's join conditions too
            "t.b < (select min(v.d) from u as v join u as w "
            "on v.a = w.a and w.d > t.b)",
        ],
    )
    def test_a_correlated_subquery_stays_in_the_residual(
        self, plan_db, where
    ) -> None:
        sql = f"select t.a from t join u on t.a = u.a where {where}"
        block = _block(plan_db, sql)
        assert self._subquery_filters(block) == []
        assert len(block.filter.conjuncts) == 1
        off = plan_db.prepare(sql, optimizer="off").execute().rows
        assert sorted(plan_db.query(sql).rows) == sorted(off)

    def test_an_enclosing_blocks_column_keeps_it_in_the_residual(
        self, plan_db
    ) -> None:
        """Resolving ``o.a`` two blocks out makes the EXISTS block between
        correlated too: it runs once per ``o`` row, not once."""
        sql = (
            "select a from u as o where exists (select 1 from t join u "
            "on t.a = u.a where t.b * 10 > (select min(v.d) from u as v "
            "where v.a = o.a))"
        )
        prepared = plan_db.prepare(sql)
        assert not any(
            note.startswith("predicate_pushdown")
            for note in prepared.optimizer_notes()
        )
        assert prepared.execute().rows == [(1,)]
        assert plan_db.prepare(sql, optimizer="off").execute().rows == [(1,)]

    def test_it_runs_after_the_other_conjuncts_and_keeps_the_index(
        self, plan_db
    ) -> None:
        plan_db.execute("create index t_a on t (a)")
        sql = (
            "select t.a, d from t join u on t.a = u.a where "
            "t.b in (select v.d / 10 from u as v) and t.a = 2"
        )
        block = _block(plan_db, sql)
        (semijoin,) = self._subquery_filters(block)
        assert isinstance(semijoin.conjuncts[-1], ast.InSubquery)
        assert isinstance(semijoin.input, IndexScan)
        assert plan_db.query(sql).rows == [(2, 200)]


class TestAccessPathInvariants:
    """``check_access_paths``: soundness of index paths as an IR assertion.

    The optimizer runs it after ``access_path_selection`` (under
    ``__debug__``); here it is also pointed at deliberately broken plans.
    """

    SQL = "select beats from sensed_data where watch_id = ? and timestamp = ?"

    @pytest.fixture()
    def guarded_block(self, policy_scenario):
        database = policy_scenario.database
        database.execute("create index i_wt on sensed_data (watch_id, timestamp)")
        rewritten = policy_scenario.monitor.rewrite(self.SQL, "p6")
        prepared = database.prepare(rewritten)
        _, (arm,) = prepared._arms()
        return arm.block

    def test_index_scan_under_the_guard_satisfies_them(self, guarded_block) -> None:
        (guard,) = [
            n for n in _nodes(guarded_block) if isinstance(n, PolicyGuard)
        ]
        assert isinstance(guard.scan, IndexScan)
        assert (guard.scan.table_name, guard.scan.binding) == (
            guard.table_name, guard.binding,
        )
        (recheck,) = [
            n for n in _nodes(guarded_block)
            if isinstance(n, Filter) and n.input is guard
        ]
        assert all(
            any(c is held for held in recheck.conjuncts)
            for c in guard.scan.matched
        )
        check_access_paths(guarded_block)

    def test_every_plan_of_the_workload_satisfies_them(self, policy_scenario) -> None:
        from repro.workload.queries import AD_HOC_QUERIES

        database = policy_scenario.database
        database.execute("create index i_wt on sensed_data (watch_id, timestamp)")
        database.execute("create index i_beats on sensed_data (beats)")
        database.execute("create index i_watch on users (watch_id) using hash")
        for query in AD_HOC_QUERIES:
            rewritten = policy_scenario.monitor.rewrite(query.sql, "p6")
            prepared = database.prepare(rewritten)
            for arm in prepared._arms()[1]:
                check_access_paths(arm.block)

    def test_dropped_recheck_is_caught(self, guarded_block) -> None:
        (guard,) = [
            n for n in _nodes(guarded_block) if isinstance(n, PolicyGuard)
        ]
        (recheck,) = [
            n for n in _nodes(guarded_block)
            if isinstance(n, Filter) and n.input is guard
        ]
        recheck.conjuncts = recheck.conjuncts[1:]
        with pytest.raises(AssertionError, match="lost its recheck"):
            check_access_paths(guarded_block)

    def test_operator_between_guard_and_scan_is_caught(self, guarded_block) -> None:
        (guard,) = [
            n for n in _nodes(guarded_block) if isinstance(n, PolicyGuard)
        ]
        guard.scan = Filter([], None, guard.scan, pushed=True)
        with pytest.raises(AssertionError, match="not a scan"):
            check_access_paths(guarded_block)

    def test_guard_over_another_table_is_caught(self, guarded_block) -> None:
        (guard,) = [
            n for n in _nodes(guarded_block) if isinstance(n, PolicyGuard)
        ]
        guard.scan.table_name = "users"
        with pytest.raises(AssertionError, match="reads"):
            check_access_paths(guarded_block)

    def test_index_scan_without_a_filter_is_caught(self, guarded_block) -> None:
        (guard,) = [
            n for n in _nodes(guarded_block) if isinstance(n, PolicyGuard)
        ]
        assert guarded_block.source_root.input is guard
        guarded_block.source_root = guard  # splice the recheck filter out
        with pytest.raises(AssertionError, match="no recheck filter"):
            check_access_paths(guarded_block)


class TestPolicyBitmapCache:
    @pytest.fixture()
    def world(self):
        database = Database("bitmaps")
        database.execute("create table t (a integer, policy text)")
        database.execute(
            "insert into t values (1, 'p'), (2, 'q'), (3, 'p'), (4, null), (5, 'q')"
        )
        database.functions.register("accepts_p", lambda mask, policy: policy == "p")
        return database

    @staticmethod
    def _passing(cache, world, mask="01") -> list[int]:
        return cache.passing_ids(
            world.table("t"), "policy", (mask,), world.functions, "accepts_p"
        )

    def test_build_costs_one_call_per_distinct_value(self, world) -> None:
        cache = PolicyBitmapCache()
        assert self._passing(cache, world) == [0, 2]
        # 'p' and 'q' — NULL rows are excluded without a call (strict UDF).
        assert world.functions.call_count("accepts_p") == 2
        assert cache.stats() == {
            "hits": 0, "built": 1, "revalidated": 0, "row_passes": 1,
            "entries": 1, "postings": 1,
        }

    def test_repeat_lookup_is_a_hit(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        assert self._passing(cache, world) == [0, 2]
        assert world.functions.call_count("accepts_p") == 2
        assert cache.stats()["hits"] == 1

    def test_distinct_masks_build_distinct_bitmaps(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world, "01")
        self._passing(cache, world, "10")
        assert cache.stats()["built"] == 2
        assert len(cache) == 2

    def test_new_mask_on_an_unchanged_table_walks_no_rows(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world, "01")
        calls = world.functions.call_count("accepts_p")
        assert self._passing(cache, world, "10") == [0, 2]
        # One verdict per distinct value ('p', 'q'), no pass over the rows.
        assert world.functions.call_count("accepts_p") - calls <= 2
        assert cache.stats()["row_passes"] == 1

    def test_data_change_rebuilds_but_reuses_verdicts(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        world.execute("insert into t values (6, 'p')")
        assert self._passing(cache, world) == [0, 2, 5]
        # Only the appended row joins a posting list; 'p' is memoized.
        assert world.functions.call_count("accepts_p") == 2
        assert cache.stats() == {
            "hits": 1, "built": 1, "revalidated": 1, "row_passes": 1,
            "entries": 1, "postings": 1,
        }

    def test_new_value_after_data_change_is_evaluated(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        world.execute("insert into t values (7, 'r')")
        self._passing(cache, world)
        assert world.functions.call_count("accepts_p") == 3

    def test_non_policy_update_keeps_the_identical_set(self, world) -> None:
        cache = PolicyBitmapCache()
        before = self._passing(cache, world)
        world.execute("update t set a = 10 where a = 1")
        after = self._passing(cache, world)
        # The guard's ordered list is the very same object: no merge.
        assert after is before
        assert world.functions.call_count("accepts_p") == 2
        assert cache.stats()["revalidated"] == 1
        assert cache.stats()["built"] == 1
        assert cache.stats()["row_passes"] == 1

    def test_policy_cell_update_flips_one_row(self, world) -> None:
        cache = PolicyBitmapCache()
        before = self._passing(cache, world)
        world.execute("update t set policy = 'p' where a = 2")
        after = self._passing(cache, world)
        assert before == [0, 2] and after == [0, 1, 2]
        world.execute("update t set policy = 'r' where a = 3")
        assert self._passing(cache, world) == [0, 1]
        # 'p' is memoized; 'r' is the only new value judged.
        assert world.functions.call_count("accepts_p") == 3
        assert cache.stats()["revalidated"] == 2
        assert cache.stats()["built"] == 1

    def test_policy_cell_update_moves_ids_without_a_row_pass(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        world.execute("update t set policy = 'q' where a = 1")
        world.execute("update t set policy = 'p' where a = 4")  # was NULL
        world.execute("update t set policy = null where a = 3")
        moved = self._passing(cache, world)
        assert cache.stats()["row_passes"] == 1
        assert moved == self._passing(PolicyBitmapCache(), world) == [3]

    def test_delete_falls_back_to_a_full_build(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        world.execute("delete from t where a = 1")
        assert self._passing(cache, world) == [1]
        # One pass rebuilds the posting index; the verdict map survives.
        assert cache.stats()["row_passes"] == 2
        assert cache.stats()["built"] == 1
        assert cache.stats()["revalidated"] == 0
        assert world.functions.call_count("accepts_p") == 2

    def test_delete_costs_one_row_pass_however_many_masks(self, world) -> None:
        cache = PolicyBitmapCache()
        masks = ("01", "10", "11")
        for bits in masks:
            self._passing(cache, world, bits)
        world.execute("delete from t where a = 1")
        for bits in masks:
            assert self._passing(cache, world, bits) == [1]
        assert cache.stats()["row_passes"] == 2

    def test_alter_table_falls_back_to_a_full_build(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        world.execute("alter table t add column extra integer")
        assert self._passing(cache, world) == [0, 2]
        assert cache.stats()["row_passes"] == 2
        assert cache.stats()["built"] == 1
        assert cache.stats()["revalidated"] == 0

    def test_entries_are_bounded_and_evict_oldest_first(self, world) -> None:
        from repro.engine.plan.bitmap import _ENTRY_LIMIT

        world.functions.register(
            "accepts", lambda mask, policy: mask.bits()[0] == "1" or policy == "p"
        )
        cache = PolicyBitmapCache()
        table = world.table("t")

        def lookup(bits):
            return cache.passing_ids(
                table, "policy", (bits,), world.functions, "accepts"
            )

        masks = [format(i, "08b") for i in range(2 * _ENTRY_LIMIT)]
        for bits in masks:
            assert lookup(bits) == ([0, 1, 2, 4] if bits[0] == "1" else [0, 2])
            assert len(cache) <= _ENTRY_LIMIT
        # The first mask was evicted: asking again builds its verdict map
        # afresh and still answers correctly.
        built = cache.stats()["built"]
        assert lookup(masks[0]) == [0, 2]
        assert cache.stats()["built"] == built + 1
        assert len(cache) == _ENTRY_LIMIT

    def test_guard_lookup_keeps_the_intersection_and_its_order(self, world) -> None:
        world.functions.register(
            "accepts", lambda mask, policy: mask.bits() == "01" or policy != "q"
        )
        world.execute("insert into t values (6, 'pq')")
        cache = PolicyBitmapCache()
        table = world.table("t")
        args = (table, "policy", ("01", "10"), world.functions, "accepts")
        ordered = cache.passing_ids(*args)
        # Mask 01 passes every non-NULL row, mask 10 everything but 'q'.
        assert ordered == [0, 2, 5]
        assert cache.stats() == {
            "hits": 0, "built": 2, "revalidated": 0, "row_passes": 1,
            "entries": 2, "postings": 1,
        }
        # One hit per mask per lookup, and the very same list: no merge on
        # a warm guard.
        assert cache.passing_ids(*args) is ordered
        assert cache.stats()["hits"] == 2
        assert cache.passing_ids(
            table, "policy", ("10",), world.functions, "accepts"
        ) == [0, 2, 5]
        # A commit that moves no row id between lists keeps the list too.
        world.execute("update t set a = 60 where a = 6")
        assert cache.passing_ids(*args) is ordered
        world.execute("delete from t where a = 1")
        assert cache.passing_ids(*args) == [1, 4]
        cache.forget("t")
        assert len(cache) == 0

    def test_clear_drops_entries_but_keeps_counters(self, world) -> None:
        cache = PolicyBitmapCache()
        self._passing(cache, world)
        self._passing(cache, world)
        cache.clear()
        assert len(cache) == 0
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["built"] == 1
        # After a clear the verdicts are gone too; the postings are not.
        self._passing(cache, world)
        assert world.functions.call_count("accepts_p") == 4
        assert cache.stats()["row_passes"] == 1

    def test_index_probe_guard_judges_only_its_candidates_values(
        self, policy_scenario
    ) -> None:
        database, monitor = policy_scenario.database, policy_scenario.monitor
        database.execute("create index i_wt on sensed_data (watch_id, timestamp)")
        sql = "select beats from sensed_data where watch_id = ? and timestamp = ?"
        monitor.execute_with_report(sql, "p6", params=["watch3", 5])
        monitor.clear_policy_bitmaps()
        before = database.policy_bitmaps.stats()
        report = monitor.execute_with_report(sql, "p6", params=["watch3", 5])
        after = database.policy_bitmaps.stats()
        masks = after["built"] - before["built"]
        # One candidate, so one policy value judged per mask, and no pass
        # over the table's rows.
        assert report.costs["index.hit"] == 1 and masks > 0
        assert report.compliance_checks == masks
        assert after["row_passes"] == 0

    def test_256_single_mask_guards_stay_small(self) -> None:
        """The cache holds row ids once per table and per kept merge, not
        once per mask: 256 distinct masks on the 100×100 world."""
        import re
        import tracemalloc
        from itertools import combinations

        scenario = build_patients_scenario(patients=100, samples_per_patient=100)
        apply_experiment_policies(scenario, 0.4)
        database = scenario.database
        rewritten = scenario.monitor.rewrite_sql("select beats from sensed_data", "p6")
        width = len(re.findall(r"b'([01]+)'", rewritten)[0])
        masks = [
            "".join("1" if i in ones else "0" for i in range(width))
            for size in (0, 1, 2)
            for ones in combinations(range(width), size)
        ][:256]
        table = database.table("sensed_data")
        cache = PolicyBitmapCache()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            passing = [
                len(
                    cache.passing_ids(
                        table, database.policy_column, (bits,),
                        database.functions, database.policy_function,
                    )
                )
                for bits in masks
            ]
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(set(masks)) == 256 and sum(passing) > 256 * 1000
        assert grown < 16 * 2**20, f"{grown / 2**20:.1f} MB"


def _bitmap_build_bound(scenario, sql: str, purpose: str) -> int:
    """Worst-case ``compliesWith`` cost of the bitmap pre-filtered plan.

    The optimizer hoists policy conjuncts into ``PolicyGuard`` nodes whose
    bitmaps are built once per distinct non-NULL policy value per
    ``(table, mask)`` pair.  Collecting every ``complieswith(mask,
    binding.policy)`` conjunct the rewriter injected — including inside
    IN/EXISTS/scalar subqueries and derived tables — therefore gives a
    static bound: an execution from a cold bitmap cache never invokes
    ``compliesWith`` more than Σ distinct policy values over the distinct
    ``(table, mask)`` pairs.  (Conjuncts the optimizer leaves in residual
    filters, e.g. under outer joins, fall back to per-row evaluation and may
    exceed this figure by design.)
    """
    database = scenario.database
    function_name = (database.policy_function or "complieswith").lower()
    statement = scenario.monitor.rewrite(sql, purpose)
    pairs: set[tuple[str, str]] = set()

    def visit_value(value, bindings: dict[str, str]) -> None:
        if isinstance(value, ast.Select):
            visit_select(value)
            return
        if (
            isinstance(value, ast.FunctionCall)
            and value.name.lower() == function_name
            and len(value.args) == 2
            and isinstance(value.args[0], ast.BitStringLiteral)
            and isinstance(value.args[1], ast.ColumnRef)
            and value.args[1].table
        ):
            table = bindings.get(value.args[1].table.lower())
            if table is not None:
                pairs.add((table, value.args[0].bits))
        if dataclasses.is_dataclass(value):
            for field_info in dataclasses.fields(value):
                visit_value(getattr(value, field_info.name), bindings)
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit_value(item, bindings)

    def add_bindings(source, bindings: dict[str, str]) -> None:
        if isinstance(source, ast.TableName):
            bindings[source.binding.lower()] = source.name.lower()
        elif isinstance(source, ast.Join):
            add_bindings(source.left, bindings)
            add_bindings(source.right, bindings)

    def visit_select(select: ast.Select) -> None:
        bindings: dict[str, str] = {}
        for source in select.sources:
            add_bindings(source, bindings)
        for field_info in dataclasses.fields(select):
            visit_value(getattr(select, field_info.name), bindings)

    def visit_statement(node) -> None:
        if isinstance(node, ast.SetOperation):
            visit_statement(node.left)
            visit_statement(node.right)
        else:
            visit_select(node)

    visit_statement(statement)
    bound = 0
    for table_name, _mask in pairs:
        table = database.table(table_name)
        index = table.schema.column_index(database.policy_column)
        bound += len({row[index] for row in table.rows if row[index] is not None})
    return bound


class TestBitmapContract:
    """End-to-end through the monitor: what q1-q8 pay for ``compliesWith``."""

    PATIENTS, SAMPLES = 15, 4

    @pytest.mark.parametrize("selectivity", [0.0, 0.5])
    @pytest.mark.parametrize("query", AD_HOC_QUERIES, ids=lambda q: q.name)
    def test_cold_bounded_warm_free_rows_equal(self, query, selectivity) -> None:
        scenario = build_patients_scenario(
            patients=self.PATIENTS, samples_per_patient=self.SAMPLES
        )
        apply_experiment_policies(scenario, selectivity, seed=411595)
        monitor = scenario.monitor

        monitor.set_optimizer("off")
        per_row = monitor.execute_with_report(query.sql, "p6")
        monitor.set_optimizer("on")
        monitor.clear_plan_cache()
        monitor.clear_policy_bitmaps()
        cold = monitor.execute_with_report(query.sql, "p6")
        warm = monitor.execute_with_report(query.sql, "p6")

        # q1-q8 hoist every policy conjunct (no outer joins), so from cold
        # caches an optimized execution pays at most one compliesWith per
        # distinct policy value per guarded (table, mask) ...
        assert cold.compliance_checks <= _bitmap_build_bound(
            scenario, query.sql, "p6"
        )
        # ... and a repeat, every guard bitmap-answered, pays none.
        assert warm.compliance_checks == 0
        assert list(cold.result) == list(per_row.result)
        if query.name == "q2":
            # The per-row model of Figure 6: one signature, no filter, so
            # every sensed_data row is checked exactly once.
            assert per_row.compliance_checks == self.PATIENTS * self.SAMPLES


class TestDerivedStateFollowsTheRows:
    """Index entries describe exactly the row list they were built from:
    after any write an index probe answers from the new rows."""

    def test_every_mutation_path_refreshes_probes(self, plan_db) -> None:
        plan_db.execute("create index t_b on t (b)")
        for sql, probe, want in (
            ("insert into t values (9, 90, 'w')", 90, [3]),
            ("update t set b = 0 where a = 9", 0, [3]),
            ("delete from t where a = 9", 0, []),
        ):
            plan_db.execute(sql)
            assert plan_db.indexes.lookup_equal("t_b", probe) == want, sql
        assert plan_db.indexes.lookup_equal("t_b", 90) == []

    def test_direct_storage_assignment_refreshes_probes(self, plan_db) -> None:
        table = plan_db.table("t")
        plan_db.execute("create index t_b on t (b)")
        assert plan_db.indexes.lookup_equal("t_b", 20) == [1]
        table.rows = table.rows[:1]
        assert plan_db.indexes.lookup_equal("t_b", 20) == []
        assert plan_db.indexes.lookup_equal("t_b", 10) == [0]
