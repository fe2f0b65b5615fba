"""Full-stack integration: every module in one realistic deployment flow.

Configure → categorize → policies → roles → sessions → queries/DML → set operations → audit → snapshot → reload →
continue enforcing.  One long scenario, asserted step by step.
"""

import pytest

from repro.core import (
    AccessControlManager,
    ActionType,
    Aggregation,
    AuditLog,
    EnforcementMonitor,
    JointAccess,
    Multiplicity,
    Policy,
    PolicyRule,
    Purpose,
    PurposeSet,
    RoleManager,
    SENSITIVE,
    IDENTIFIER,
    Session,
)
from repro.engine import Database, persist
from repro.errors import UnauthorizedPurposeError


@pytest.fixture()
def deployment():
    db = Database("clinic")
    db.execute(
        "create table patients (pid text, name text, diagnosis text, "
        "heart_rate integer)"
    )
    db.execute(
        "insert into patients values "
        "('pa1', 'ann', 'flu', 80), ('pa2', 'bob', 'ok', 70), "
        "('pa3', 'cat', 'flu', 95)"
    )
    admin = AccessControlManager(db)
    admin.configure(
        purposes=PurposeSet(
            [Purpose("p1", "treatment"), Purpose("p2", "research")]
        )
    )
    return db, admin


def test_full_stack_flow(deployment):
    db, admin = deployment

    # --- administration ----------------------------------------------------------
    admin.categorize("patients", "pid", IDENTIFIER)
    admin.categorize("patients", "diagnosis", SENSITIVE)
    admin.categorize("patients", "heart_rate", SENSITIVE)

    admin.apply_policy(
        Policy(
            "patients",
            (
                # treatment: full direct access + filtering.
                PolicyRule.of(
                    ["pid", "name", "diagnosis", "heart_rate"],
                    ["p1"],
                    ActionType.direct(
                        Multiplicity.SINGLE, Aggregation.NO_AGGREGATION,
                        JointAccess.of("i", "s", "g"),
                    ),
                ),
                PolicyRule.of(
                    ["pid", "name", "diagnosis", "heart_rate"],
                    ["p1"],
                    ActionType.indirect(JointAccess.of("i", "s", "g")),
                ),
                # research: aggregate heart rates only.
                PolicyRule.of(
                    ["heart_rate"],
                    ["p2"],
                    ActionType.direct(
                        Multiplicity.SINGLE, Aggregation.AGGREGATION,
                        JointAccess.of("s", "g"),
                    ),
                ),
            ),
        ),
    )

    # --- roles + monitor + audit --------------------------------------------------
    roles = RoleManager(admin)
    roles.install()
    roles.define_role("clinician")
    roles.define_role("researcher")
    roles.grant_purpose_to_role("clinician", "p1")
    roles.grant_purpose_to_role("researcher", "p2")
    roles.assign_role("grey", "clinician")
    roles.assign_role("rita", "researcher")

    monitor = EnforcementMonitor(admin, authorizer=roles)
    audit = AuditLog(db)
    monitor.attach_audit(audit)

    # --- sessions -------------------------------------------------------------------
    grey = Session(monitor, user="grey", purpose="p1")
    rita = Session(monitor, user="rita", purpose="p2")

    assert len(grey.query("select name, diagnosis from patients")) == 3
    average = rita.query("select avg(heart_rate) from patients").scalar()
    assert average == pytest.approx(81.6667, abs=1e-3)
    assert len(rita.query("select heart_rate from patients")) == 0
    with pytest.raises(UnauthorizedPurposeError):
        rita.set_purpose("p1")
        rita.query("select name from patients")

    # --- DML through the session ------------------------------------------------------
    rita.set_purpose("p2")
    updated = grey.execute(
        "update patients set diagnosis = 'recovered' where pid like 'pa1'"
    )
    assert updated == 1
    assert grey.query(
        "select diagnosis from patients where pid like 'pa1'"
    ).scalar() == "recovered"
    assert rita.execute("delete from patients") == 0  # research can't touch

    # --- set operations -----------------------------------------------------------------
    union = grey.execute(
        "select name from patients where diagnosis like 'flu' "
        "union select name from patients where heart_rate > 75"
    )
    assert sorted(union.column("name")) == ["ann", "cat"]

    # --- audit trail ------------------------------------------------------------------------
    assert len(audit) >= 7
    assert audit.denials()  # rita's treatment attempt
    trail = db.query("select count(*) from al where outcome like 'allowed'")
    assert trail.scalar() >= 6

    # --- snapshot + reload -------------------------------------------------------------------
    snapshot = persist.dumps(db)
    restored_db = persist.loads(snapshot)
    restored_admin = AccessControlManager.from_existing(restored_db)
    restored_monitor = EnforcementMonitor(restored_admin)
    restored = restored_monitor.execute(
        "select name, diagnosis from patients", "p1"
    )
    assert len(restored) == 3
    assert ("ann", "recovered") in restored.rows
    # Research restrictions survive the reload too.
    assert len(
        restored_monitor.execute("select heart_rate from patients", "p2")
    ) == 0
