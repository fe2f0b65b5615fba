"""Policy Management tests: registration, re-encoding and mask migration."""

import pytest

from repro.core import (
    ActionType,
    Aggregation,
    JointAccess,
    Multiplicity,
    Policy,
    PolicyManager,
    PolicyRule,
    Purpose,
    complies_with,
)
from repro.engine import Column, SqlType
from repro.engine.types import BitString
from repro.errors import PolicyError


def temperature_rule(purposes=("p1", "p6")):
    return PolicyRule.of(
        ["temperature"],
        purposes,
        ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("q", "s")
        ),
    )


class TestRegistration:
    def test_add_policy_applies_and_registers(self, fresh_scenario):
        manager = fresh_scenario.manager
        policy = Policy("sensed_data", (temperature_rule(),))
        rows = manager.add_policy(policy)
        assert rows == fresh_scenario.sensed_rows
        assert policy in manager.policies

    def test_remove_policies_clears_masks(self, fresh_scenario):
        manager = fresh_scenario.manager
        manager.add_policy(Policy("sensed_data", (temperature_rule(),)))
        removed = manager.remove_policies("sensed_data")
        assert removed == 1
        masks = fresh_scenario.admin.policy_masks("sensed_data")
        assert all(mask is None for mask in masks)

    def test_reapply_after_purpose_added(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        manager.add_policy(Policy("sensed_data", (temperature_rule(),)))
        old_mask = admin.policy_masks("sensed_data")[0]

        admin.define_purpose(Purpose("p0", "archiving"))  # sorts first!
        manager.reapply_all()
        new_mask = admin.policy_masks("sensed_data")[0]
        # 5 cols + 9 purposes + 10 action bits = 24: still one byte-aligned
        # rule, but every purpose bit has shifted by one position.
        assert new_mask != old_mask
        assert admin.layout("sensed_data").payload_length == 24

        # Semantics preserved: the p6 signature still complies.
        layout = admin.layout("sensed_data")
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("q")
        )
        signature = layout.signature_mask(["temperature"], action, "p6")
        assert complies_with(signature, new_mask)
        # And the new purpose is not implicitly granted.
        p0_signature = layout.signature_mask(["temperature"], action, "p0")
        assert not complies_with(p0_signature, new_mask)


class TestMaskMigration:
    def test_migrate_requires_snapshot(self, fresh_scenario):
        with pytest.raises(PolicyError):
            fresh_scenario.manager.migrate()

    def test_migrate_noop_when_unchanged(self, fresh_scenario):
        manager = fresh_scenario.manager
        manager.add_policy(Policy("sensed_data", (temperature_rule(),)))
        manager.snapshot_layouts()
        assert manager.migrate() == 0

    def test_migrate_after_purpose_added(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        # Install a raw mask (no registered Policy object).
        layout = admin.layout("sensed_data")
        mask = layout.policy_mask(Policy("sensed_data", (temperature_rule(),)))
        admin.store_policy_mask("sensed_data", mask)
        manager.snapshot_layouts()

        admin.define_purpose(Purpose("p0", "archiving"))
        migrated = manager.migrate()
        assert migrated == fresh_scenario.sensed_rows

        new_layout = admin.layout("sensed_data")
        new_mask = admin.policy_masks("sensed_data")[0]
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("q", "s")
        )
        assert complies_with(
            new_layout.signature_mask(["temperature"], action, "p6"), new_mask
        )
        assert not complies_with(
            new_layout.signature_mask(["temperature"], action, "p0"), new_mask
        )

    def test_migrate_after_purpose_removed_drops_reference(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        layout = admin.layout("sensed_data")
        admin.store_policy_mask(
            "sensed_data",
            layout.policy_mask(Policy("sensed_data", (temperature_rule(("p1", "p6")),))),
        )
        manager.snapshot_layouts()
        admin.remove_purpose("p6")
        manager.migrate()

        new_layout = admin.layout("sensed_data")
        new_mask = admin.policy_masks("sensed_data")[0]
        decoded = new_layout.decode_rule_mask(
            new_layout.split_policy_mask(new_mask)[0]
        )
        assert decoded["purposes"] == {"p1"}

    def test_migrate_after_column_added(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        layout = admin.layout("sensed_data")
        admin.store_policy_mask(
            "sensed_data",
            layout.policy_mask(Policy("sensed_data", (temperature_rule(),))),
        )
        manager.snapshot_layouts()

        admin.database.table("sensed_data").add_column(
            Column("oxygen", SqlType.DOUBLE)
        )
        manager.migrate()

        new_layout = admin.layout("sensed_data")
        assert "oxygen" in new_layout.columns
        new_mask = admin.policy_masks("sensed_data")[0]
        decoded = new_layout.decode_rule_mask(
            new_layout.split_policy_mask(new_mask)[0]
        )
        assert decoded["columns"] == {"temperature"}

    def test_pass_all_and_pass_none_preserved_by_migration(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        layout = admin.layout("users")
        policy = Policy("users", (PolicyRule.pass_none(), PolicyRule.pass_all()))
        admin.store_policy_mask("users", layout.policy_mask(policy))
        manager.snapshot_layouts()

        admin.define_purpose(Purpose("p0", "archiving"))
        manager.migrate()

        new_layout = admin.layout("users")
        parts = new_layout.split_policy_mask(admin.policy_masks("users")[0])
        assert parts[0] == BitString.zeros(new_layout.rule_length)
        assert parts[1] == BitString.ones(new_layout.rule_length)

    def test_null_masks_survive_migration(self, fresh_scenario):
        manager = fresh_scenario.manager
        admin = fresh_scenario.admin
        manager.snapshot_layouts()
        admin.define_purpose(Purpose("p0", "archiving"))
        manager.migrate()
        assert all(mask is None for mask in admin.policy_masks("users"))
