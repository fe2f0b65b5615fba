"""Policy Management (Section 2): stored policy masks follow every purpose
and column edit, re-encoded in that edit's own commit."""

import pytest

from repro.core import (
    ActionType,
    Aggregation,
    JointAccess,
    Multiplicity,
    Policy,
    PolicyRule,
    Purpose,
    complies_with,
)
from repro.engine import Column, SqlType, txn_scope
from repro.engine.types import BitString
from repro.workload import build_patients_scenario


def temperature_rule(purposes=("p1", "p6")):
    return PolicyRule.of(
        ["temperature"],
        purposes,
        ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("q", "s")
        ),
    )


EVERY_CATEGORY = JointAccess.of("i", "q", "s", "g")

#: Direct access for p6 only on every column the edits keep, and indirect
#: access to ``temperature`` for p2 and p6: before any edit the indirect
#: read below returns rows under p2 and p6 only, the direct read under p6.
POLICY = Policy(
    "sensed_data",
    (
        PolicyRule.of(
            ["watch_id", "timestamp", "temperature", "position"],
            ["p6"],
            ActionType.direct(
                Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, EVERY_CATEGORY
            ),
        ),
        PolicyRule.of(
            ["temperature"], ["p2", "p6"], ActionType.indirect(EVERY_CATEGORY)
        ),
    ),
)

READS = (
    "select watch_id, temperature from sensed_data",
    "select count(*) from sensed_data where temperature > 0",
)

#: Edits that move every mask bit after the edited purpose or column.
EDITS = {
    "define-p0": lambda admin: admin.define_purpose(Purpose("p0", "archiving")),
    "remove-p1": lambda admin: admin.remove_purpose("p1"),
    "add-column": lambda admin: admin.database.execute(
        "alter table sensed_data add column oxygen double"
    ),
    "drop-column": lambda admin: admin.database.execute(
        "alter table sensed_data drop column beats"
    ),
}


def world(edit=None):
    """A small patients world, ``edit`` applied, then :data:`POLICY`."""
    scenario = build_patients_scenario(patients=20, samples_per_patient=5)
    if edit is not None:
        EDITS[edit](scenario.admin)
    scenario.admin.apply_policy(POLICY)
    return scenario


def answers(scenario) -> dict:
    """Every read's sorted rows under every purpose of the visible set."""
    return {
        (purpose, sql): sorted(scenario.monitor.execute(sql, purpose).rows)
        for purpose in scenario.admin.purposes.ids()
        for sql in READS
    }


@pytest.mark.parametrize("end", ["autocommit", "commit", "rollback"])
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_stored_masks_follow_the_edit(edit, end):
    """Every purpose reads what a twin world reads whose policy was applied
    freshly after the same edit — inside the edit's transaction too — and a
    snapshot pinned before the edit answers as before it."""
    scenario = world()
    database = scenario.database
    before = answers(scenario)
    assert before[("p6", READS[0])] and before[("p2", READS[1])] != [(0,)]
    assert before[("p5", READS[1])] == [(0,)]
    pinned = database.transactions.begin()
    if end != "autocommit":
        database.begin()
    EDITS[edit](scenario.admin)
    edited = answers(world(edit))
    assert answers(scenario) == edited
    if end == "commit":
        database.commit()
    elif end == "rollback":
        database.rollback()
        edited = before
    assert answers(scenario) == edited
    with txn_scope(pinned):
        assert answers(scenario) == before
    database.transactions.rollback(pinned)


class TestRegistration:
    def test_reapply_after_purpose_added(self, fresh_scenario):
        """A policy stored through apply_policy is re-encoded by the purpose
        edit itself: no separate re-apply step is needed."""
        admin = fresh_scenario.admin
        admin.apply_policy(Policy("sensed_data", (temperature_rule(),)))
        old_mask = admin.policy_masks("sensed_data")[0]

        admin.define_purpose(Purpose("p0", "archiving"))  # sorts first!
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
    def test_migrate_noop_when_unchanged(self, fresh_scenario):
        """Edits that leave every layout alone write no stored mask."""
        admin, database = fresh_scenario.admin, fresh_scenario.database
        admin.apply_policy(Policy("sensed_data", (temperature_rule(),)))
        rows = database.table("sensed_data").rows
        admin.categorize("sensed_data", "beats", admin.categories.default)
        admin.bump_policy_epoch()
        database.execute("create index i_beats on sensed_data (beats)")
        assert database.table("sensed_data").rows is rows

    def test_migrate_after_purpose_added(self, fresh_scenario):
        admin = fresh_scenario.admin
        # Install a raw mask (no Policy object to re-apply).
        layout = admin.layout("sensed_data")
        mask = layout.policy_mask(Policy("sensed_data", (temperature_rule(),)))
        written = admin.store_policy_mask("sensed_data", mask)
        assert written == fresh_scenario.sensed_rows

        admin.define_purpose(Purpose("p0", "archiving"))  # sorts first!
        new_layout = admin.layout("sensed_data")
        new_mask = admin.policy_masks("sensed_data")[0]
        # 5 cols + 9 purposes + 10 action bits = 24: still one byte-aligned
        # rule, but every purpose bit has shifted by one position.
        assert new_layout.payload_length == 24 and new_mask != mask
        action = ActionType.direct(
            Multiplicity.SINGLE, Aggregation.AGGREGATION, JointAccess.of("q", "s")
        )
        assert complies_with(
            new_layout.signature_mask(["temperature"], action, "p6"), new_mask
        )
        # And the new purpose is not implicitly granted.
        assert not complies_with(
            new_layout.signature_mask(["temperature"], action, "p0"), new_mask
        )

    def test_migrate_after_purpose_removed_drops_reference(self, fresh_scenario):
        admin = fresh_scenario.admin
        admin.apply_policy(Policy("sensed_data", (temperature_rule(("p1", "p6")),)))
        admin.remove_purpose("p6")

        new_layout = admin.layout("sensed_data")
        new_mask = admin.policy_masks("sensed_data")[0]
        decoded = new_layout.decode_rule_mask(
            new_layout.split_policy_mask(new_mask)[0]
        )
        assert decoded["purposes"] == {"p1"}

    def test_migrate_after_column_added(self, fresh_scenario):
        admin = fresh_scenario.admin
        admin.apply_policy(Policy("sensed_data", (temperature_rule(),)))
        admin.database.table("sensed_data").add_column(
            Column("oxygen", SqlType.DOUBLE)
        )

        new_layout = admin.layout("sensed_data")
        assert "oxygen" in new_layout.columns
        new_mask = admin.policy_masks("sensed_data")[0]
        decoded = new_layout.decode_rule_mask(
            new_layout.split_policy_mask(new_mask)[0]
        )
        assert decoded["columns"] == {"temperature"}
        assert decoded["purposes"] == {"p1", "p6"}

    def test_pass_all_and_pass_none_preserved_by_migration(self, fresh_scenario):
        admin = fresh_scenario.admin
        admin.apply_policy(
            Policy("users", (PolicyRule.pass_none(), PolicyRule.pass_all()))
        )
        admin.define_purpose(Purpose("p0", "archiving"))
        admin.database.execute("alter table users add column ward integer")

        new_layout = admin.layout("users")
        parts = new_layout.split_policy_mask(admin.policy_masks("users")[0])
        assert parts[0] == BitString.zeros(new_layout.rule_length)
        assert parts[1] == BitString.ones(new_layout.rule_length)

    def test_null_masks_survive_migration(self, fresh_scenario):
        admin = fresh_scenario.admin
        admin.define_purpose(Purpose("p0", "archiving"))
        admin.database.execute("alter table users drop column watch_id")
        assert all(mask is None for mask in admin.policy_masks("users"))


def test_a_purpose_edit_conflicts_with_a_row_committed_meanwhile():
    """A row another session commits while a purpose edit's transaction is
    open was encoded under the old layout: the edit re-encodes only what
    its snapshot sees, so it must not commit past that row."""
    from repro.errors import WriteConflictError

    scenario = build_patients_scenario(patients=2, samples_per_patient=2)
    admin, database = scenario.admin, scenario.database
    policy = Policy(
        "users",
        (
            PolicyRule.of(
                ["user_id", "watch_id", "nutritional_profile_id"],
                ["p6"],
                ActionType.direct(
                    Multiplicity.SINGLE, Aggregation.NO_AGGREGATION, EVERY_CATEGORY
                ),
            ),
        ),
    )
    admin.apply_policy(policy)
    database.begin()
    admin.define_purpose(Purpose("p0", "archiving"))
    with txn_scope(None):
        admin.insert_with_policy("users", ("late", "watchX", 1), policy)
    with pytest.raises(WriteConflictError):
        database.commit()
    position = database.table("users").schema.column_index("policy")
    stored = {row[0]: row[position] for row in database.table("users").rows}
    assert stored["late"] == admin.layout("users").policy_mask(policy)
    sql = "select user_id from users"
    assert ("late",) in scenario.monitor.execute(sql, "p6").rows
