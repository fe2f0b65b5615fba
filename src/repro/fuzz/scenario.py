"""Reproducible fuzzing scenarios: data, policies, users and grants.

A :class:`ScenarioSpec` is the complete, serializable recipe for the world a
fuzz case runs in: dataset sizes and seed, the policy-randomization mode and
seed, and how many users (with which purpose grants) exist.  Building the
same spec twice yields byte-identical databases, which is what makes a repro
file self-contained — replaying ⟨spec, case⟩ re-creates exactly the state
the failure was observed under.

Policy modes:

``scattered``
    Section 6.1's pass-all/pass-none policies at the spec's selectivity
    (per-tuple for users/nutritional_profiles, per-watch for sensed_data).
``structured``
    Fully randomized ⟨Cl, Pu, At⟩ rules per entity
    (:func:`repro.workload.policies.apply_random_policies`).
``mixed``
    Scattered policies on ``users``/``sensed_data``, structured on
    ``nutritional_profiles`` — both families in one world.
``open``
    No policies stored at all: every mask is NULL, so every enforced
    query over a signed table returns nothing (the closed-world default).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..workload import (
    PatientsScenario,
    ScatteredPolicySpec,
    apply_random_policies,
    apply_scattered_policies,
    build_patients_scenario,
)

#: The policy-randomization modes a spec may name.
POLICY_MODES = ("scattered", "structured", "mixed", "open")

#: Indexable workload columns: ``(table, column, kind)``.  Hash for the
#: id-equality columns the generator probes, B-tree for the range-heavy
#: numeric ones.
INDEX_CANDIDATES = (
    ("users", "watch_id", "hash"),
    ("users", "nutritional_profile_id", "btree"),
    ("sensed_data", "watch_id", "hash"),
    ("sensed_data", "timestamp", "btree"),
    ("sensed_data", "beats", "btree"),
    ("nutritional_profiles", "profile_id", "btree"),
)

#: The composite B-tree every indexed world also carries: ``(name, target)``.
COMPOSITE_INDEX = ("idx_sensed_data_key", "sensed_data (watch_id, timestamp)")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to rebuild a fuzzing world deterministically."""

    patients: int = 25
    samples: int = 8
    data_seed: int = 20150311
    policy_mode: str = "mixed"
    policy_seed: int = 411595
    selectivity: float = 0.4
    user_count: int = 4
    #: Secondary indexes to create: ``-1`` draws 0–3 from the policy seed,
    #: ``0`` disables, ``1``–``3`` pin the count; any indexed world also
    #: gets :data:`COMPOSITE_INDEX`.  Index presence never changes enforced
    #: results — that is exactly the invariant the differential harness
    #: checks — so older repro files without this field replay under the
    #: default.
    index_count: int = -1

    def __post_init__(self) -> None:
        if self.policy_mode not in POLICY_MODES:
            raise ValueError(
                f"policy_mode must be one of {POLICY_MODES}, got {self.policy_mode!r}"
            )
        if self.patients < 1 or self.samples < 1 or self.user_count < 1:
            raise ValueError("patients, samples and user_count must be >= 1")
        if not -1 <= self.index_count <= 3:
            raise ValueError("index_count must be between -1 and 3")

    def to_dict(self) -> dict:
        """JSON-ready form (the ``spec`` object of a repro file)."""
        return {
            "patients": self.patients,
            "samples": self.samples,
            "data_seed": self.data_seed,
            "policy_mode": self.policy_mode,
            "policy_seed": self.policy_seed,
            "selectivity": self.selectivity,
            "user_count": self.user_count,
            "index_count": self.index_count,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass
class FuzzScenario:
    """A built world: the patients scenario plus the fuzzing user roster."""

    spec: ScenarioSpec
    scenario: PatientsScenario
    grants: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: Names of the secondary indexes created in this world, in creation
    #: order (the last, when any exist, is the composite one).
    indexes: tuple[str, ...] = ()

    @property
    def admin(self):
        return self.scenario.admin

    @property
    def monitor(self):
        return self.scenario.monitor

    @property
    def database(self):
        return self.scenario.database

    @property
    def users(self) -> tuple[str, ...]:
        """User ids in roster order; ``u0`` always holds every purpose."""
        return tuple(self.grants)

    @property
    def purposes(self) -> tuple[str, ...]:
        return self.admin.purposes.ids()

    def is_authorized(self, user: str | None, purpose: str) -> bool:
        """The oracle-side Pa check (``None`` means no user restriction)."""
        if user is None:
            return True
        return purpose in self.grants.get(user, ())


def _apply_policies(instance: PatientsScenario, spec: ScenarioSpec) -> None:
    if spec.policy_mode == "open":
        return
    rng = random.Random(spec.policy_seed)
    scattered = ScatteredPolicySpec(spec.selectivity)
    per_table = {
        "users": None,
        "nutritional_profiles": None,
        "sensed_data": "watch_id",
    }
    for table, entity_column in per_table.items():
        if spec.policy_mode == "scattered":
            structured = False
        elif spec.policy_mode == "structured":
            structured = True
        else:  # mixed
            structured = table == "nutritional_profiles"
        if structured:
            apply_random_policies(
                instance.admin, table, rng, entity_column=entity_column
            )
        else:
            apply_scattered_policies(
                instance.admin, table, scattered, rng, entity_column=entity_column
            )


def _grant_users(instance: PatientsScenario, spec: ScenarioSpec) -> dict:
    """Create the user roster: u0 holds all purposes, the rest random subsets.

    Every user holds at least one grant (an ungranted user is unknown to the
    framework and could not even open a session), but most hold only some —
    which is what makes generated ⟨user, purpose⟩ pairs exercise both the
    allowed and the denied authorization outcome.
    """
    rng = random.Random(f"{spec.policy_seed}:users")
    purposes = instance.admin.purposes.ids()
    grants: dict[str, tuple[str, ...]] = {}
    for index in range(spec.user_count):
        user = f"u{index}"
        if index == 0:
            granted = purposes
        else:
            count = rng.randint(1, max(1, len(purposes) - 1))
            granted = tuple(sorted(rng.sample(list(purposes), k=count)))
        for purpose in granted:
            instance.admin.grant_purpose(user, purpose)
        grants[user] = granted
    return grants


def _create_indexes(instance: PatientsScenario, spec: ScenarioSpec) -> tuple[str, ...]:
    """Create the spec's secondary indexes through the DDL surface.

    Deterministic per policy seed: ``count`` distinct candidates drawn in
    shuffled order.  When any index is created, the composite
    ``sensed_data`` key rides along (beside the spec's count) so full-key
    and prefix probes are exercised too.
    """
    rng = random.Random(f"{spec.policy_seed}:indexes")
    count = spec.index_count
    if count < 0:
        count = rng.randint(0, 3)
    if count == 0:
        return ()
    database = instance.database
    created: list[str] = []
    candidates = list(INDEX_CANDIDATES)
    rng.shuffle(candidates)
    for table, column, kind in candidates[:count]:
        name = f"idx_{table}_{column}"
        using = f" using {kind}" if kind != "btree" else ""
        database.execute(f"create index {name} on {table} ({column}){using}")
        created.append(name)
    database.execute(f"create index {COMPOSITE_INDEX[0]} on {COMPOSITE_INDEX[1]}")
    created.append(COMPOSITE_INDEX[0])
    return tuple(created)


def build_fuzz_scenario(spec: ScenarioSpec | None = None) -> FuzzScenario:
    """Build the world a spec describes (deterministic per spec)."""
    spec = spec or ScenarioSpec()
    instance = build_patients_scenario(
        patients=spec.patients,
        samples_per_patient=spec.samples,
        seed=spec.data_seed,
    )
    _apply_policies(instance, spec)
    grants = _grant_users(instance, spec)
    indexes = _create_indexes(instance, spec)
    return FuzzScenario(
        spec=spec, scenario=instance, grants=grants, indexes=indexes
    )
