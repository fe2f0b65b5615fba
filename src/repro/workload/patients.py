"""The *patients* running example (Section 3) and its data generator.

Builds the nursing-home database — ``users``, ``sensed_data``,
``nutritional_profiles`` — populates it following the evaluation setup of
Section 6 ("each patient is described by one tuple in users, one in
nutritional_profile, and multiple tuples in sensed_data"), configures access
control and applies the data categorization of Figure 2.

Table name note: the paper's Section 3 spells the third table
``nutritional_profile`` while its own benchmark queries (Figure 4) use
``nutritional_profiles``; we follow the queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import (
    AccessControlManager,
    EnforcementMonitor,
    GENERIC,
    IDENTIFIER,
    QUASI_IDENTIFIER,
    SENSITIVE,
    default_purpose_set,
)
from ..engine import Column, Database, SqlType, TableSchema

#: Figure 2's data categorization, per (table, column).
CATEGORIZATION = (
    ("users", "user_id", IDENTIFIER),
    ("users", "watch_id", QUASI_IDENTIFIER),
    ("users", "nutritional_profile_id", QUASI_IDENTIFIER),
    ("sensed_data", "watch_id", QUASI_IDENTIFIER),
    ("sensed_data", "timestamp", GENERIC),
    ("sensed_data", "temperature", SENSITIVE),
    ("sensed_data", "position", SENSITIVE),
    ("sensed_data", "beats", SENSITIVE),
    ("nutritional_profiles", "profile_id", QUASI_IDENTIFIER),
    ("nutritional_profiles", "food_intolerances", SENSITIVE),
    ("nutritional_profiles", "food_preferences", SENSITIVE),
    ("nutritional_profiles", "diet_type", SENSITIVE),
)

FOOD_INTOLERANCES = (
    "no_intolerance", "gluten", "lactose", "nuts", "shellfish", "eggs",
)
FOOD_PREFERENCES = (
    "pasta", "rice", "fish", "poultry", "vegetables", "fruit", "soup",
)
DIET_TYPES = ("vegan", "low_sugar", "low_salt", "mediterranean", "high_protein")
POSITIONS = ("room", "garden", "dining_hall", "gym", "infirmary", "lounge")


@dataclass
class PatientsScenario:
    """A fully configured instance of the running example."""

    database: Database
    admin: AccessControlManager
    monitor: EnforcementMonitor
    patients: int
    samples_per_patient: int

    @property
    def sensed_rows(self) -> int:
        """Total rows of ``sensed_data``."""
        return self.patients * self.samples_per_patient


def create_patients_schema(database: Database) -> None:
    """Create the three tables of the running example."""
    database.create_table(
        TableSchema(
            "users",
            [
                Column("user_id", SqlType.TEXT, primary_key=True),
                Column("watch_id", SqlType.TEXT),
                Column("nutritional_profile_id", SqlType.INTEGER),
            ],
        )
    )
    database.create_table(
        TableSchema(
            "sensed_data",
            [
                Column("watch_id", SqlType.TEXT, primary_key=True),
                Column("timestamp", SqlType.INTEGER, primary_key=True),
                Column("temperature", SqlType.DOUBLE),
                Column("position", SqlType.TEXT),
                Column("beats", SqlType.INTEGER),
            ],
        )
    )
    database.create_table(
        TableSchema(
            "nutritional_profiles",
            [
                Column("profile_id", SqlType.INTEGER, primary_key=True),
                Column("food_intolerances", SqlType.TEXT),
                Column("food_preferences", SqlType.TEXT),
                Column("diet_type", SqlType.TEXT),
            ],
        )
    )


def populate_patients(
    database: Database,
    patients: int,
    samples_per_patient: int,
    seed: int = 20150311,
) -> None:
    """Generate synthetic patient data (deterministic for a given seed)."""
    rng = random.Random(seed)
    users = database.table("users")
    sensed = database.table("sensed_data")
    profiles = database.table("nutritional_profiles")
    # Rows are staged per table and bulk-appended once: one commit per
    # table instead of one per row, so the policy posting index follows
    # the load in one pass.  The RNG draw order is
    # unchanged, so generated data matches the old per-row loader exactly.
    user_rows: list[tuple] = []
    profile_rows: list[tuple] = []
    sensed_rows: list[tuple] = []
    for patient in range(patients):
        user_id = f"user{patient}"
        watch_id = f"watch{patient}"
        user_rows.append((user_id, watch_id, patient))
        profile_rows.append(
            (
                patient,
                rng.choice(FOOD_INTOLERANCES),
                rng.choice(FOOD_PREFERENCES),
                rng.choice(DIET_TYPES),
            )
        )
        for sample in range(samples_per_patient):
            sensed_rows.append(
                (
                    watch_id,
                    sample + 1,
                    round(rng.uniform(35.0, 41.0), 2),
                    rng.choice(POSITIONS),
                    rng.randint(50, 140),
                )
            )
    users.append_rows(user_rows, ("user_id", "watch_id", "nutritional_profile_id"))
    profiles.append_rows(
        profile_rows,
        ("profile_id", "food_intolerances", "food_preferences", "diet_type"),
    )
    sensed.append_rows(
        sensed_rows,
        ("watch_id", "timestamp", "temperature", "position", "beats"),
    )


def build_patients_scenario(
    patients: int = 100,
    samples_per_patient: int = 100,
    seed: int = 20150311,
) -> PatientsScenario:
    """Build, populate and configure the full running example.

    The paper's Experiment 1 uses 1,000 patients × 1,000 samples; defaults
    here are scaled down for the pure-Python engine, and every benchmark
    accepts explicit sizes.
    """
    database = Database("patients")
    create_patients_schema(database)
    populate_patients(database, patients, samples_per_patient, seed)

    admin = AccessControlManager(database)
    admin.configure(purposes=default_purpose_set())
    for table, column, category in CATEGORIZATION:
        admin.categorize(table, column, category)

    monitor = EnforcementMonitor(admin)
    return PatientsScenario(
        database=database,
        admin=admin,
        monitor=monitor,
        patients=patients,
        samples_per_patient=samples_per_patient,
    )
