"""Epoch-scoped caches and their headline regression: a policy update
between prepare and execute must never serve stale policy bitmaps (or
stale compliance-memo verdicts) to the execution.
"""

from __future__ import annotations

from repro.workload import apply_experiment_policies, build_patients_scenario

Q1 = "select distinct watch_id from sensed_data"


class TestEpochScoped:
    def test_epoch_bump_drops_cached_bitmaps(self, policy_scenario) -> None:
        monitor = policy_scenario.monitor
        monitor.set_optimizer("on")
        monitor.execute(Q1, "p6")
        admin = policy_scenario.admin
        assert len(policy_scenario.database.policy_bitmaps) > 0
        assert admin.compliance_memo_info()["cached"] > 0
        admin.bump_policy_epoch()
        assert len(policy_scenario.database.policy_bitmaps) == 0
        assert admin.compliance_memo_info()["cached"] == 0


class TestNoStaleBitmaps:
    """A policy update between prepare and execute invalidates bitmaps."""

    def _fresh(self):
        instance = build_patients_scenario(patients=20, samples_per_patient=6)
        apply_experiment_policies(instance, selectivity=0.6, seed=7)
        instance.monitor.set_optimizer("on")
        return instance

    def test_policy_update_between_prepare_and_execute(self) -> None:
        instance = self._fresh()
        monitor = instance.monitor
        prepared = monitor.prepare(Q1, "p6")
        before = prepared.execute_with_report()
        # Re-scatter the policies: a different selectivity and seed changes
        # which rows comply.  The writers bump the policy epoch, which must
        # clear the bitmap cache.
        apply_experiment_policies(instance, selectivity=0.0, seed=1234)
        after = prepared.execute_with_report()
        # Ground truth from the per-row evaluation model, which consults no
        # caches at all.
        monitor.set_optimizer("off")
        expected = monitor.execute_with_report(Q1, "p6")
        assert sorted(after.result.rows) == sorted(expected.result.rows)
        assert not after.cache_hit, "plan from the old epoch was reused"
        # Sanity: the update actually changed the outcome, so the equality
        # above cannot pass by accident.
        assert sorted(before.result.rows) != sorted(after.result.rows)

    def test_data_update_between_executions_refreshes_bitmaps(self) -> None:
        instance = self._fresh()
        monitor = instance.monitor
        database = instance.database
        first = monitor.execute_with_report(Q1, "p6")
        table = database.table("sensed_data")
        survivors = len(first.result)
        # Dropping rows through the storage property (the path every DML
        # helper funnels through) bumps Table.version, so the next
        # execution rebuilds its bitmap instead of filtering stale indices.
        table.rows = table.rows[: len(table.rows) // 2]
        second = monitor.execute_with_report(Q1, "p6")
        monitor.set_optimizer("off")
        expected = monitor.execute_with_report(Q1, "p6")
        assert sorted(second.result.rows) == sorted(expected.result.rows)
        assert len(second.result) <= survivors
