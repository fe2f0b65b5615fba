"""Shared fixtures: small instances of the running example."""

from __future__ import annotations

import pytest

from repro.workload import apply_experiment_policies, build_patients_scenario


@pytest.fixture(scope="session")
def scenario():
    """A small patients scenario (30 patients x 10 samples), no policies.

    Session-scoped and treated as read-only by tests; tests that install
    policies use the function-scoped ``policy_scenario`` instead.
    """
    return build_patients_scenario(patients=30, samples_per_patient=10)


@pytest.fixture()
def fresh_scenario():
    """A function-scoped scenario tests may mutate freely."""
    return build_patients_scenario(patients=20, samples_per_patient=5)


@pytest.fixture()
def policy_scenario():
    """A scenario with scattered policies at selectivity 0.4 installed."""
    instance = build_patients_scenario(patients=25, samples_per_patient=8)
    apply_experiment_policies(instance, selectivity=0.4, seed=99)
    return instance


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files under tests/golden/ and "
        "tests/bench/golden/ instead of comparing",
    )


@pytest.fixture()
def update_golden(request):
    """True when the run should rewrite golden files instead of asserting."""
    return bool(request.config.getoption("--update-golden"))
