"""Policy caches across policy changes, and their headline regression: a
policy update between prepare and execute must never serve stale policy
bitmaps (or stale compliance-memo verdicts) to the execution.

A stored mask is row data and a verdict is a pure function of two bit
strings, so neither a mask store nor a taxonomy bump sweeps the verdict
maps or the memo; a mask store is not even a new epoch, and the cached
plan must enforce the new masks.
"""

from __future__ import annotations

from repro.workload import apply_experiment_policies, build_patients_scenario

Q1 = "select distinct watch_id from sensed_data"


class TestEpochScoped:
    def test_epoch_bump_keeps_cached_bitmaps(self, policy_scenario) -> None:
        monitor = policy_scenario.monitor
        monitor.set_optimizer("on")
        monitor.execute(Q1, "p6")
        admin = policy_scenario.admin
        maps = len(policy_scenario.database.policy_bitmaps)
        cached = admin.compliance_memo_info()["cached"]
        assert maps > 0 and cached > 0
        admin.bump_policy_epoch()
        assert len(policy_scenario.database.policy_bitmaps) == maps
        assert admin.compliance_memo_info()["cached"] == cached
        report = monitor.execute_with_report(Q1, "p6")
        assert not report.cache_hit  # the taxonomy moved: a fresh rewrite
        assert report.costs["bitmap.built"] == 0
        fresh = build_patients_scenario(patients=25, samples_per_patient=8)
        apply_experiment_policies(fresh, selectivity=0.4, seed=99)
        assert sorted(report.result.rows) == sorted(
            fresh.monitor.execute(Q1, "p6").rows
        )


class TestNoStaleBitmaps:
    """A policy update between prepare and execute reaches the guards."""

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
        # which rows comply.  The writers commit rows only, so the cached
        # plan runs again and its guards must read the new masks.
        apply_experiment_policies(instance, selectivity=0.0, seed=1234)
        after = prepared.execute_with_report()
        # Ground truth from the per-row evaluation model, which consults no
        # caches at all.
        monitor.set_optimizer("off")
        expected = monitor.execute_with_report(Q1, "p6")
        assert sorted(after.result.rows) == sorted(expected.result.rows)
        assert after.cache_hit, "a mask store recompiled the plan"
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
        # helper funnels through) commits a shorter row list, so the next
        # execution rebuilds its posting index instead of filtering stale
        # row ids.
        table.rows = table.rows[: len(table.rows) // 2]
        second = monitor.execute_with_report(Q1, "p6")
        monitor.set_optimizer("off")
        expected = monitor.execute_with_report(Q1, "p6")
        assert sorted(second.result.rows) == sorted(expected.result.rows)
        assert len(second.result) <= survivors
