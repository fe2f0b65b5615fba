"""Experiment harness behind ``python -m repro.bench.cli``.

Builds the evaluation setup of Section 6 — the *patients* scenario with
scattered policies — and measures, per query, the execution time of the
original and the rewritten statement, both prepared once with the optimizer
off, plus the number of ``compliesWith`` invocations (the complexity metric
of Figure 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.admin import COMPLIES_WITH
from ..workload import (
    AD_HOC_QUERIES,
    BenchmarkQuery,
    PatientsScenario,
    apply_experiment_policies,
    build_patients_scenario,
    random_queries,
)

#: The selectivity sweep of Experiment 1 (Section 6.3).
PAPER_SELECTIVITIES = (0.0, 0.2, 0.4, 0.6)

#: The purpose the benchmark queries run under (scattered policies are
#: purpose-agnostic, so any registered purpose gives identical behaviour).
BENCH_PURPOSE = "p6"


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizing and sweep parameters for the experiments."""

    patients: int = 100
    samples_per_patient: int = 100
    selectivities: tuple[float, ...] = PAPER_SELECTIVITIES
    include_random: bool = True
    random_seed: int = 2015
    policy_seed: int = 411595
    data_seed: int = 20150311
    repeat: int = 1


@dataclass
class QueryMeasurement:
    """One (query, selectivity) cell of Figures 6 and 7."""

    query: str
    selectivity: float
    original_time: float
    rewritten_time: float
    compliance_checks: int
    original_rows: int
    rewritten_rows: int

    @property
    def overhead(self) -> float:
        """Rewritten minus original execution time (may be negative)."""
        return self.rewritten_time - self.original_time


@dataclass
class ExperimentRun:
    """All measurements of one experiment configuration."""

    config: ExperimentConfig
    measurements: list[QueryMeasurement] = field(default_factory=list)

    def cell(self, query: str, selectivity: float) -> QueryMeasurement:
        """Look up a single measurement."""
        for measurement in self.measurements:
            if (
                measurement.query == query
                and abs(measurement.selectivity - selectivity) < 1e-9
            ):
                return measurement
        raise KeyError((query, selectivity))

    def queries(self) -> list[str]:
        """Distinct query names, in first-seen order."""
        seen: list[str] = []
        for measurement in self.measurements:
            if measurement.query not in seen:
                seen.append(measurement.query)
        return seen

    def selectivities(self) -> list[float]:
        """Distinct selectivity values, in first-seen order."""
        seen: list[float] = []
        for measurement in self.measurements:
            if measurement.selectivity not in seen:
                seen.append(measurement.selectivity)
        return seen


def experiment_queries(config: ExperimentConfig) -> tuple[BenchmarkQuery, ...]:
    """q1-q8 plus (optionally) r1-r20 for the configured sizes."""
    queries = list(AD_HOC_QUERIES)
    if config.include_random:
        queries.extend(
            random_queries(
                config.random_seed, config.patients, config.samples_per_patient
            )
        )
    return tuple(queries)


def build_scenario(config: ExperimentConfig) -> PatientsScenario:
    """The patients scenario at the configured size (no policies yet)."""
    return build_patients_scenario(
        patients=config.patients,
        samples_per_patient=config.samples_per_patient,
        seed=config.data_seed,
    )


def set_selectivity(
    scenario: PatientsScenario, selectivity: float, policy_seed: int
) -> None:
    """(Re)generate scattered policies at a target selectivity (§6.1)."""
    apply_experiment_policies(scenario, selectivity, seed=policy_seed)


def time_query(run, repeat: int = 1) -> float:
    """Best-of-``repeat`` wall time of a zero-argument callable."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def measure_query(
    scenario: PatientsScenario,
    query: BenchmarkQuery,
    selectivity: float,
    repeat: int = 1,
) -> QueryMeasurement:
    """Measure one query under the currently installed policies.

    Both sides run by one rule, as in the paper's §6: the original and the
    rewritten statement are each planned once, with the optimizer off, and
    only their execution is timed (parsing, rewriting and planning are
    not).  Figure 6 counts per-row ``compliesWith`` invocations, which is
    why the mode is off: bitmap pre-filtering would turn the metric into a
    distinct-policy-value count.  Row counts and the check count come from
    one untimed run of each side.
    """
    database = scenario.database
    rewritten_select = scenario.monitor.rewrite(query.sql, BENCH_PURPOSE)
    original = database.prepare(query.sql, optimizer="off")
    rewritten = database.prepare(rewritten_select, optimizer="off")
    original_rows = len(original.execute())
    with database.cost_total.ledger(None) as costs:
        rewritten_rows = len(rewritten.execute(costs=costs))
    return QueryMeasurement(
        query=query.name,
        selectivity=selectivity,
        original_time=time_query(original.execute, repeat),
        rewritten_time=time_query(rewritten.execute, repeat),
        compliance_checks=costs[COMPLIES_WITH],
        original_rows=original_rows,
        rewritten_rows=rewritten_rows,
    )
