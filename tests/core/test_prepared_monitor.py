"""The prepared enforcement pipeline: plan cache, policy epochs, parameters."""

import pytest

from repro.core import (
    AuditLog,
    EnforcementMonitor,
    Policy,
    PolicyRule,
    Purpose,
)
from repro.core.categories import SENSITIVE
from repro.errors import PolicyError, UnauthorizedPurposeError
from repro.workload import apply_experiment_policies


def open_all(admin):
    for table in admin.target_tables():
        admin.apply_policy(Policy(table, (PolicyRule.pass_all(),)))


class TestPrepareExecute:
    def test_prepared_result_matches_direct_execution(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        sql = "select user_id from users"
        prepared = monitor.prepare(sql, "p1")
        assert sorted(prepared.execute().rows) == sorted(
            monitor.execute(sql, "p1").rows
        )

    def test_pipeline_runs_once_for_repeated_executions(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        derivations = []
        original = monitor.deriver.derive
        monitor.deriver.derive = lambda *a, **k: (
            derivations.append(1),
            original(*a, **k),
        )[1]
        prepared = monitor.prepare("select user_id from users", "p1")
        for _ in range(3):
            prepared.execute()
        assert len(derivations) == 1  # parse → sign → rewrite happened once

    def test_cache_counters_and_report_flag(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        monitor.clear_plan_cache()
        first = monitor.execute_with_report("select user_id from users", "p1")
        second = monitor.execute_with_report("select user_id from users", "p1")
        assert not first.cache_hit
        assert second.cache_hit
        info = monitor.plan_cache_info()
        assert info["hits"] >= 1 and info["misses"] >= 1

    def test_formatting_variants_share_one_plan(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        monitor.execute("select user_id from users", "p1")
        report = monitor.execute_with_report(
            "SELECT   user_id\nFROM users", "p1"
        )
        assert report.cache_hit

    def test_distinct_purposes_get_distinct_plans(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        monitor.execute("select user_id from users", "p1")
        report = monitor.execute_with_report("select user_id from users", "p2")
        assert not report.cache_hit

    def test_lru_bound_is_enforced(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = EnforcementMonitor(fresh_scenario.admin, plan_cache_size=2)
        for column in ("user_id", "watch_id", "nutritional_profile_id"):
            monitor.prepare(f"select {column} from users", "p1")
        assert monitor.plan_cache_info()["size"] == 2

    def test_unknown_purpose_rejected_at_prepare(self, fresh_scenario):
        with pytest.raises(PolicyError):
            fresh_scenario.monitor.prepare("select user_id from users", "p99")

    def test_unauthorized_user_rejected_per_execution(self, fresh_scenario):
        admin = fresh_scenario.admin
        open_all(admin)
        admin.grant_purpose("alice", "p1")
        prepared = fresh_scenario.monitor.prepare("select user_id from users", "p1")
        assert len(prepared.execute(user="alice")) > 0
        with pytest.raises(UnauthorizedPurposeError):
            prepared.execute(user="mallory")


class TestEpochInvalidation:
    def test_stricter_policy_after_prepare_is_enforced(self, fresh_scenario):
        admin = fresh_scenario.admin
        open_all(admin)
        prepared = fresh_scenario.monitor.prepare("select user_id from users", "p1")
        assert len(prepared.execute()) == fresh_scenario.patients
        admin.apply_policy(Policy("users", (PolicyRule.pass_none(),)))
        report = prepared.execute_with_report()
        # A mask store is a row commit: the cached plan reads the new mask.
        assert report.cache_hit
        assert len(report.result) == 0

    def test_recategorization_forces_fresh_rewrite(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        prepared = monitor.prepare("select watch_id from users", "p1")
        prepared.execute()
        fresh_scenario.admin.categorize("users", "watch_id", SENSITIVE)
        report = prepared.execute_with_report()
        assert not report.cache_hit  # epoch moved, plan recompiled

    def test_purpose_set_change_with_migration(self, fresh_scenario):
        admin = fresh_scenario.admin
        open_all(admin)
        monitor = fresh_scenario.monitor
        prepared = monitor.prepare("select user_id from users", "p1")
        assert len(prepared.execute()) == fresh_scenario.patients

        # The edit re-encodes the stored masks under the wider layout.
        admin.define_purpose(Purpose("p9", "a new purpose"))
        report = prepared.execute_with_report()
        assert not report.cache_hit
        assert len(report.result) == fresh_scenario.patients

        admin.remove_purpose("p9")
        report = prepared.execute_with_report()
        assert not report.cache_hit
        assert len(report.result) == fresh_scenario.patients

    def test_scattered_policy_regeneration_invalidates(self, fresh_scenario):
        open_all(fresh_scenario.admin)
        monitor = fresh_scenario.monitor
        prepared = monitor.prepare("select user_id from users", "p1")
        full = len(prepared.execute())
        apply_experiment_policies(fresh_scenario, selectivity=1.0, seed=3)
        assert len(prepared.execute()) == 0
        apply_experiment_policies(fresh_scenario, selectivity=0.0, seed=3)
        assert len(prepared.execute()) == full


class TestParameters:
    def test_parameterized_rewrite_matches_literal_form(self, policy_scenario):
        monitor = policy_scenario.monitor
        literal = "select beats from sensed_data where beats > 70"
        bound = "select beats from sensed_data where beats > :cut"
        literal_sql = monitor.rewrite_sql(literal, "p6")
        prepared = monitor.prepare(bound, "p6")
        # Rewriting adds the same complieswith conjuncts either way.
        assert prepared.rewritten_sql.count("complieswith") == literal_sql.count(
            "complieswith"
        )
        assert sorted(prepared.execute({"cut": 70}).rows) == sorted(
            monitor.execute(literal, "p6").rows
        )

    def test_rebinding_without_replanning(self, policy_scenario):
        monitor = policy_scenario.monitor
        prepared = monitor.prepare(
            "select beats from sensed_data where beats > $1", "p6"
        )
        info_before = monitor.plan_cache_info()
        low = len(prepared.execute([0]))
        high = len(prepared.execute([250]))
        assert high == 0 and low > 0
        assert monitor.plan_cache_info()["misses"] == info_before["misses"]


class TestSetOperations:
    def test_set_operation_is_audited_and_counted(self, policy_scenario):
        monitor = policy_scenario.monitor
        audit = AuditLog(policy_scenario.database)
        monitor.attach_audit(audit)
        sql = (
            "select user_id from users union select user_id from users"
        )
        result = monitor.execute_statement(sql, "p6", user=None)
        rows = policy_scenario.database.table("al").rows
        assert len(rows) == 1
        record = rows[-1]
        assert "allowed" in record
        assert record[-1] > 0  # complieswith invocations were counted

    def test_prepared_set_operation(self, policy_scenario):
        monitor = policy_scenario.monitor
        sql = (
            "select user_id from users where user_id = :a "
            "union select user_id from users where user_id = :b"
        )
        prepared = monitor.prepare(sql, "p6")
        assert prepared.signature is None  # one signature per branch instead
        direct = monitor.execute_statement(
            "select user_id from users where user_id = 'user1' "
            "union select user_id from users where user_id = 'user2'",
            "p6",
        )
        assert sorted(
            prepared.execute({"a": "user1", "b": "user2"}).rows
        ) == sorted(direct.rows)
