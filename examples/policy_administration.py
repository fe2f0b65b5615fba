"""Policy administration: meta-tables, custom categories and mask evolution.

Demonstrates the Access Control Management and Policy Management modules
(Section 2): inspecting the Pr/Pm/Pa meta-tables, registering an extra data
category (Section 4.1 says the default list is extensible), and stored
policy masks following a purpose-set change and a table schema change on
their own — each edit re-encodes them in its own commit (the paper's
future-work item 4).

Run with:  python examples/policy_administration.py
"""

from repro.core import (
    ActionType,
    Aggregation,
    CategoryRegistry,
    DataCategory,
    JointAccess,
    Multiplicity,
    Policy,
    PolicyRule,
    Purpose,
)
from repro.core.categories import DEFAULT_CATEGORIES
from repro.core.admin import AccessControlManager
from repro.core.monitor import EnforcementMonitor
from repro.engine import Database
from repro.core.purposes import PurposeSet


def show(title: str, rows) -> None:
    print(f"{title}:")
    for row in rows:
        print("   ", row)


def main() -> None:
    db = Database("clinic")
    db.execute(
        "create table visits (patient text, clinician text, notes text, "
        "heart_rate integer)"
    )
    db.execute(
        "insert into visits values "
        "('bob', 'dr_grey', 'routine check', 72), "
        "('ann', 'dr_house', 'followup', 88)"
    )

    # A custom category beyond the paper's four: biometric data.
    biometric = DataCategory("b", "biometric")
    categories = CategoryRegistry(DEFAULT_CATEGORIES)
    categories.add(biometric)

    admin = AccessControlManager(db, categories=categories)
    admin.configure(
        purposes=PurposeSet(
            [Purpose("p1", "treatment"), Purpose("p2", "research")]
        )
    )
    from repro.core import IDENTIFIER, SENSITIVE

    admin.categorize("visits", "patient", IDENTIFIER)
    admin.categorize("visits", "notes", SENSITIVE)
    admin.categorize("visits", "heart_rate", biometric)
    admin.grant_purpose("dr_grey", "p1")

    show("Pr (purposes)", db.query("select * from pr").rows)
    show("Pm (categorization)", db.query("select * from pm").rows)
    show("Pa (authorizations)", db.query("select * from pa").rows)

    layout = admin.layout("visits")
    print(
        f"\nmask layout for visits: {len(layout.columns)} column bits + "
        f"{len(layout.purpose_ids)} purpose bits + {layout.action_length} "
        f"action bits (+{layout.padding} padding) = {layout.rule_length}"
    )

    admin.apply_policy(
        Policy(
            "visits",
            (
                PolicyRule.of(
                    ["heart_rate"],
                    ["p2"],
                    ActionType.direct(
                        Multiplicity.SINGLE, Aggregation.AGGREGATION,
                        JointAccess.of("b"),
                    ),
                ),
                PolicyRule.of(
                    ["patient", "clinician", "notes", "heart_rate"],
                    ["p1"],
                    ActionType.direct(
                        Multiplicity.SINGLE, Aggregation.NO_AGGREGATION,
                        JointAccess.of("i", "s", "b", "g"),
                    ),
                ),
            ),
        )
    )

    monitor = EnforcementMonitor(admin)
    print("\nresearch may aggregate heart rates:",
          monitor.execute("select avg(heart_rate) from visits", "p2").first())
    print("research may NOT read notes      :",
          len(monitor.execute("select notes from visits", "p2")), "rows")
    print("treatment reads the full record  :",
          len(monitor.execute("select * from visits", "p1", user="dr_grey")),
          "rows")

    # ---- evolution: new purpose + new column; the masks follow ----------
    print("\n--- evolving the deployment ---")
    before = admin.policy_masks("visits")[0]
    admin.define_purpose(Purpose("p0", "auditing"))  # sorts before p1!
    db.execute("alter table visits add column billing_code text")
    after = admin.policy_masks("visits")[0]
    print(f"stored mask re-encoded by the edits: {before.bits()}")
    print(f"                                  -> {after.bits()}")

    # Old grants still hold under the new layout...
    print("research aggregate still works   :",
          monitor.execute("select avg(heart_rate) from visits", "p2").first())
    # ...and nothing leaked to the new purpose or the new column.
    print("auditing got nothing implicitly  :",
          len(monitor.execute("select heart_rate from visits", "p0")), "rows")
    print("billing_code not yet covered     :",
          len(monitor.execute("select billing_code from visits", "p1")), "rows")


if __name__ == "__main__":
    main()
