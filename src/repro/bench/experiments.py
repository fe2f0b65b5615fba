"""The paper's experiments (Section 6.3).

* :func:`run_experiment1` sweeps policy selectivity over a fixed dataset and
  yields the data behind **Figure 6** (compliance checks per query) and
  **Figure 7** (original vs rewritten execution time).
* :func:`run_experiment2` fixes selectivity at 0.4 and sweeps the dataset
  size (the paper's Scn 1-4), yielding **Figure 8**.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .harness import (
    ExperimentConfig,
    ExperimentRun,
    build_scenario,
    experiment_queries,
    measure_query,
    set_selectivity,
)


def run_experiment1(config: ExperimentConfig | None = None) -> ExperimentRun:
    """Experiment 1: vary policy selectivity, fixed dataset (Figures 6-7).

    The paper keeps the same data while regenerating policies per
    selectivity level; we do the same — the scenario is built once and only
    the ``policy`` column is rewritten between sweeps.
    """
    config = config or ExperimentConfig()
    scenario = build_scenario(config)
    queries = experiment_queries(config)
    run = ExperimentRun(config)
    for selectivity in config.selectivities:
        set_selectivity(scenario, selectivity, config.policy_seed)
        for query in queries:
            run.measurements.append(
                measure_query(scenario, query, selectivity, config.repeat)
            )
    return run


@dataclass
class DatasetScenarioResult:
    """One dataset size (the paper's Scn N) of Experiment 2."""

    label: str
    sensed_rows: int
    run: ExperimentRun


@dataclass
class Experiment2Result:
    """All dataset sizes of Experiment 2 (Figure 8)."""

    scenarios: list[DatasetScenarioResult] = field(default_factory=list)


def run_experiment2(
    base_config: ExperimentConfig | None = None,
    samples_sweep: tuple[int, ...] | None = None,
    selectivity: float = 0.4,
) -> Experiment2Result:
    """Experiment 2: vary dataset size at fixed selectivity 0.4 (Figure 8).

    The paper's Scn 1-4 hold ``users``/``nutritional_profiles`` at 1,000
    rows and grow ``sensed_data`` from 10^4 to 10^7 by a factor of 10 per
    scenario; ``samples_sweep`` holds the per-patient sample counts, default
    a geometric ×10-style sweep scaled to the configured patient count.
    """
    base_config = base_config or ExperimentConfig()
    if samples_sweep is None:
        base = max(2, base_config.samples_per_patient // 10)
        samples_sweep = (base, base * 5, base * 10, base * 50)
    result = Experiment2Result()
    for index, samples in enumerate(samples_sweep, start=1):
        config = dataclasses.replace(
            base_config,
            samples_per_patient=samples,
            selectivities=(selectivity,),
        )
        scenario = build_scenario(config)
        set_selectivity(scenario, selectivity, config.policy_seed)
        run = ExperimentRun(config)
        for query in experiment_queries(config):
            run.measurements.append(
                measure_query(scenario, query, selectivity, config.repeat)
            )
        result.scenarios.append(
            DatasetScenarioResult(
                label=f"Scn {index}",
                sensed_rows=config.patients * samples,
                run=run,
            )
        )
    return result
