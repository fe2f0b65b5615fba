"""Benchmark harness regenerating the paper's evaluation (Section 6)."""

from .experiments import (
    DatasetScenarioResult,
    Experiment2Result,
    run_experiment1,
    run_experiment2,
)
from .harness import (
    BENCH_PURPOSE,
    ExperimentConfig,
    ExperimentRun,
    PAPER_SELECTIVITIES,
    QueryMeasurement,
    build_scenario,
    experiment_queries,
    measure_query,
    set_selectivity,
)
from .reporting import (
    cub_table,
    figure6_table,
    figure7_table,
    figure8_table,
)

__all__ = [
    "DatasetScenarioResult",
    "Experiment2Result",
    "run_experiment1",
    "run_experiment2",
    "BENCH_PURPOSE",
    "ExperimentConfig",
    "ExperimentRun",
    "PAPER_SELECTIVITIES",
    "QueryMeasurement",
    "build_scenario",
    "experiment_queries",
    "measure_query",
    "set_selectivity",
    "cub_table",
    "figure6_table",
    "figure7_table",
    "figure8_table",
]
