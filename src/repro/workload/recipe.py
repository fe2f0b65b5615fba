"""World recipes: deterministic descriptions of a deployable scenario.

A sharded deployment needs N+1 *identical* worlds: one full replica on the
coordinator (for queries that cannot be scattered) and one pruned replica
per shard worker; the benchmark's server and its traced replay need two
more.  Worlds are never copied — a :class:`WorldRecipe`
carries the deterministic construction parameters and every participant
rebuilds the same world from it (:func:`build_world`), exactly the way a
fuzz repro file rebuilds the failure scenario from its
:class:`~repro.fuzz.scenario.ScenarioSpec`.

Determinism is the load-bearing property: the fuzz scenario builder is
byte-deterministic per spec (same data, policies, grants, indexes and
policy epoch), and the patients recipe reuses the benchmark harness's
seeded builders.  Grants are part of the recipe because shard-side
enforcement must agree with the coordinator on the purpose roster even
though authorization itself is checked once, on the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import AccessControlManager
from ..core.monitor import EnforcementMonitor
from ..engine import Database
from .patients import build_patients_scenario
from .policies import apply_experiment_policies


@dataclass(frozen=True)
class WorldRecipe:
    """Everything needed to rebuild one scenario world deterministically.

    ``kind`` selects the builder:

    ``"fuzz"``
        ``fuzz_spec`` holds the canonical ``(field, value)`` pairs of a
        :class:`~repro.fuzz.scenario.ScenarioSpec` (user grants and
        indexes are derived from the spec's seeds, so they need no extra
        fields).
    ``"patients"``
        The benchmark/demo scenario: ``patients`` × ``samples`` rows,
        scattered policies at ``selectivity`` under ``policy_seed``, data
        under ``data_seed``, plus the explicit purpose ``grants``.
    """

    kind: str = "patients"
    fuzz_spec: tuple = ()
    patients: int = 50
    samples: int = 20
    selectivity: float = 0.4
    policy_seed: int = 411595
    data_seed: int = 20150311
    grants: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("fuzz", "patients"):
            raise ValueError(f"unknown recipe kind {self.kind!r}")
        if self.kind == "fuzz" and not self.fuzz_spec:
            raise ValueError("fuzz recipes require a fuzz_spec")

    @classmethod
    def for_fuzz(cls, spec) -> "WorldRecipe":
        """Recipe for a fuzzing world (:func:`build_fuzz_scenario`)."""
        return cls(
            kind="fuzz",
            fuzz_spec=tuple(sorted(spec.to_dict().items())),
        )

    @classmethod
    def for_patients(
        cls,
        patients: int = 50,
        samples: int = 20,
        selectivity: float = 0.4,
        policy_seed: int = 411595,
        data_seed: int = 20150311,
        grants: "tuple[tuple[str, str], ...]" = (),
    ) -> "WorldRecipe":
        """Recipe for the patients benchmark/demo scenario."""
        return cls(
            kind="patients",
            patients=patients,
            samples=samples,
            selectivity=selectivity,
            policy_seed=policy_seed,
            data_seed=data_seed,
            grants=tuple(grants),
        )


@dataclass
class BuiltWorld:
    """One rebuilt world: the monitor façade plus its admin and database."""

    monitor: EnforcementMonitor
    admin: AccessControlManager
    database: Database


def build_world(recipe: WorldRecipe) -> BuiltWorld:
    """Rebuild the world a recipe describes (deterministic per recipe)."""
    if recipe.kind == "fuzz":
        from ..fuzz.scenario import ScenarioSpec, build_fuzz_scenario

        world = build_fuzz_scenario(ScenarioSpec.from_dict(dict(recipe.fuzz_spec)))
        return BuiltWorld(
            monitor=world.monitor, admin=world.admin, database=world.database
        )
    scenario = build_patients_scenario(
        patients=recipe.patients,
        samples_per_patient=recipe.samples,
        seed=recipe.data_seed,
    )
    apply_experiment_policies(scenario, recipe.selectivity, seed=recipe.policy_seed)
    for user, purpose in recipe.grants:
        scenario.admin.grant_purpose(user, purpose)
    return BuiltWorld(
        monitor=scenario.monitor,
        admin=scenario.admin,
        database=scenario.database,
    )
