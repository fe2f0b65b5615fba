"""Benchmark workload: the patients scenario, policies and query sets."""

from .patients import (
    CATEGORIZATION,
    PatientsScenario,
    build_patients_scenario,
    create_patients_schema,
    populate_patients,
)
from .policies import (
    ScatteredPolicySpec,
    apply_experiment_policies,
    apply_random_policies,
    apply_scattered_policies,
    compliance_flags,
    random_policy,
    random_rule,
    scattered_policy,
)
from .queries import AD_HOC_QUERIES, BenchmarkQuery, get_query
from .recipe import BuiltWorld, WorldRecipe, build_world
from .randgen import (
    QUERY_CLASSES,
    RANDOM_QUERY_CLASSES,
    RandomQueryGenerator,
    case_rng,
    random_queries,
)

__all__ = [
    "CATEGORIZATION",
    "PatientsScenario",
    "build_patients_scenario",
    "create_patients_schema",
    "populate_patients",
    "ScatteredPolicySpec",
    "apply_experiment_policies",
    "apply_random_policies",
    "apply_scattered_policies",
    "compliance_flags",
    "random_policy",
    "random_rule",
    "scattered_policy",
    "AD_HOC_QUERIES",
    "BenchmarkQuery",
    "get_query",
    "BuiltWorld",
    "WorldRecipe",
    "build_world",
    "QUERY_CLASSES",
    "RANDOM_QUERY_CLASSES",
    "RandomQueryGenerator",
    "case_rng",
    "random_queries",
]
