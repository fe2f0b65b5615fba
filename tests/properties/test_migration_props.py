"""Property: re-encoding a stored mask preserves compliance verdicts.

A purpose edit or an ALTER TABLE moves every bit after the edited purpose
or column, and :meth:`MaskLayout.reencode` moves a stored mask with them.
After any mix of purpose additions and removals and column additions and
drops, every signature expressible under *both* layouts must keep its
verdict, and only a pass-all rule may grant a new purpose or cover a new
column.
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    ActionType,
    Aggregation,
    JointAccess,
    MaskLayout,
    Multiplicity,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
    SpecialRule,
    complies_with,
)

OLD_COLUMNS = ("watch_id", "timestamp", "temperature", "position", "beats")
OLD_PURPOSES = tuple(f"p{i}" for i in range(1, 9))
NEW_COLUMN = "oxygen"
NEW_PURPOSE = "p0"  # sorts first: shifts every purpose bit
CATEGORY_CODES = ("i", "q", "s", "g")


def layout(columns, purposes) -> MaskLayout:
    return MaskLayout(
        "sensed_data", columns, PurposeSet([Purpose(p, p) for p in purposes])
    )


OLD_LAYOUT = layout(OLD_COLUMNS, OLD_PURPOSES)


@st.composite
def new_layouts(draw, add_purpose=None, add_column=None):
    """The layout after dropping some old columns and purposes (at least
    one of each survives) and maybe adding :data:`NEW_PURPOSE` and
    :data:`NEW_COLUMN` — an ALTER appends, a purpose sorts into place."""
    kept_columns = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    kept_purposes = draw(st.lists(st.booleans(), min_size=8, max_size=8))
    kept_columns[draw(st.integers(0, 4))] = True
    kept_purposes[draw(st.integers(0, 7))] = True
    columns = [c for c, kept in zip(OLD_COLUMNS, kept_columns) if kept]
    purposes = [p for p, kept in zip(OLD_PURPOSES, kept_purposes) if kept]
    if draw(st.booleans()) if add_column is None else add_column:
        columns.append(NEW_COLUMN)
    if draw(st.booleans()) if add_purpose is None else add_purpose:
        purposes.append(NEW_PURPOSE)
    return layout(columns, purposes)


def action_types():
    joint = st.frozensets(st.sampled_from(CATEGORY_CODES)).map(JointAccess)
    return st.one_of(
        joint.map(ActionType.indirect),
        st.builds(
            ActionType.direct,
            st.sampled_from((Multiplicity.SINGLE, Multiplicity.MULTIPLE)),
            st.sampled_from((Aggregation.AGGREGATION, Aggregation.NO_AGGREGATION)),
            joint,
        ),
    )


def rules():
    ordinary = st.builds(
        lambda columns, purposes, action: PolicyRule(
            frozenset(columns), frozenset(purposes), action
        ),
        st.frozensets(st.sampled_from(OLD_COLUMNS), min_size=1),
        st.frozensets(st.sampled_from(OLD_PURPOSES)),
        action_types(),
    )
    return st.one_of(
        ordinary, st.just(PolicyRule.pass_all()), st.just(PolicyRule.pass_none())
    )


def policies():
    return st.lists(rules(), min_size=1, max_size=3).map(
        lambda rule_list: Policy("sensed_data", tuple(rule_list))
    )


def has_pass_all(policy: Policy) -> bool:
    return any(rule.special is SpecialRule.PASS_ALL for rule in policy.rules)


@settings(max_examples=200, deadline=None)
@given(policies(), new_layouts(), st.data(), action_types())
def test_migration_preserves_old_verdicts(policy, new_layout, data, action):
    shared_columns = sorted(set(OLD_COLUMNS) & set(new_layout.columns))
    shared_purposes = sorted(set(OLD_PURPOSES) & set(new_layout.purpose_ids))
    columns = data.draw(st.frozensets(st.sampled_from(shared_columns), min_size=1))
    purpose = data.draw(st.sampled_from(shared_purposes))
    old_mask = OLD_LAYOUT.policy_mask(policy)
    new_mask = OLD_LAYOUT.reencode(old_mask, new_layout)

    old_verdict = complies_with(
        OLD_LAYOUT.signature_mask(columns, action, purpose), old_mask
    )
    new_verdict = complies_with(
        new_layout.signature_mask(columns, action, purpose), new_mask
    )
    assert new_verdict == old_verdict


@settings(max_examples=100, deadline=None)
@given(policies(), new_layouts(add_purpose=True), action_types())
def test_migration_grants_nothing_to_new_purpose(policy, new_layout, action):
    """Only pass-all rules may authorize the newly added purpose."""
    new_mask = OLD_LAYOUT.reencode(OLD_LAYOUT.policy_mask(policy), new_layout)
    verdict = complies_with(
        new_layout.signature_mask(new_layout.columns[:1], action, NEW_PURPOSE),
        new_mask,
    )
    assert verdict == has_pass_all(policy)


@settings(max_examples=100, deadline=None)
@given(policies(), new_layouts(add_column=True), action_types())
def test_migration_grants_nothing_on_new_column(policy, new_layout, action):
    """Only pass-all rules may cover the newly added column."""
    new_mask = OLD_LAYOUT.reencode(OLD_LAYOUT.policy_mask(policy), new_layout)
    purpose = new_layout.purpose_ids[-1]
    verdict = complies_with(
        new_layout.signature_mask((NEW_COLUMN,), action, purpose), new_mask
    )
    assert verdict == has_pass_all(policy)
