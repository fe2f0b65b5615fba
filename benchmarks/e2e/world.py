"""The pinned world every workload runs against.

One place for the scale, the purpose, the users and the index, so the server
child (``serve.py``), the in-process expected-answer pass and the traced
replay all build byte-identical worlds.  Nothing here depends on ``--seed``:
the seed shapes the *op lists*, never the data or the policies.
"""

from __future__ import annotations

import time

from repro.core import AuditLog
from repro.shard import WorldRecipe
from repro.workload import apply_experiment_policies, build_patients_scenario
from repro.workload.policies import scattered_policy

PATIENTS = 100
SAMPLES = 100
SELECTIVITY = 0.4
PURPOSE = "p6"
#: One user per load-generator connection (nproc = 2, so at most two).
USERS = ("bench0", "bench1")

INDEX_NAME = "e2e_watch_ts"
INDEX_DDL = f"create index {INDEX_NAME} on sensed_data (watch_id, timestamp)"

RECIPE = WorldRecipe.for_patients(
    patients=PATIENTS,
    samples=SAMPLES,
    selectivity=SELECTIVITY,
    grants=tuple((user, PURPOSE) for user in USERS),
)


def build_single_world(timings: "dict | None" = None):
    """Build the 100×100 patients scenario with policies, grants, index, audit.

    Same steps as :func:`repro.shard.recipe.build_world` on ``RECIPE`` (same
    seeds, so the same data and masks), unrolled so each step can be timed
    into ``timings`` — the ``setup.*`` per-layer metrics.
    """
    timings = {} if timings is None else timings
    begin = time.perf_counter()
    scenario = build_patients_scenario(
        patients=RECIPE.patients,
        samples_per_patient=RECIPE.samples,
        seed=RECIPE.data_seed,
    )
    timings["world_build_s"] = time.perf_counter() - begin
    begin = time.perf_counter()
    apply_experiment_policies(scenario, RECIPE.selectivity, seed=RECIPE.policy_seed)
    for user, purpose in RECIPE.grants:
        scenario.admin.grant_purpose(user, purpose)
    timings["policy_install_s"] = time.perf_counter() - begin
    timings["index_build_s"] = create_index(scenario.database)
    scenario.monitor.attach_audit(AuditLog(scenario.database))
    return scenario


def create_index(database) -> float:
    """Create the B+-tree and force its (lazy) first build; returns seconds.

    DDL is run on the engine: the monitor — and so the wire — rejects DDL
    with ``policy_denied``, so "over the wire" is not available on the seed.
    """
    begin = time.perf_counter()
    database.execute(INDEX_DDL)
    database.indexes.lookup_equal(INDEX_NAME, ("watch0", 1))
    return time.perf_counter() - begin


def bump_policy(admin, watch: str, step: int) -> None:
    """Recompile one *visible* patient's scattered policy (stays compliant).

    The mask value changes (rule count / pass-all position rotate with
    ``step``) and the policy epoch moves, so plans and bitmaps are invalidated
    — but the patient stays compliant, so query answers do not depend on how
    many bumps preceded them and one expected digest per statement suffices.
    """
    from dataclasses import replace

    policy = replace(
        scattered_policy(
            "sensed_data",
            compliant=True,
            rule_count=1 + step % 3,
            pass_all_position=step % 3,
        ),
        tuple_selector=("watch_id", watch),
    )
    admin.apply_policy(policy)
