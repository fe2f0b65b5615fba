"""Benchmark-harness tests (small sizes, checking structure not speed)."""

import dataclasses

import pytest

from repro.bench import (
    ExperimentConfig,
    build_scenario,
    experiment_queries,
    figure6_table,
    figure7_table,
    figure8_table,
    measure_query,
    run_experiment1,
    run_experiment2,
    set_selectivity,
)
from repro.workload import get_query


SMALL = ExperimentConfig(
    patients=15,
    samples_per_patient=4,
    selectivities=(0.0, 0.5),
    include_random=False,
)


class TestConfig:
    def test_experiment_queries_adhoc_only(self):
        queries = experiment_queries(SMALL)
        assert [q.name for q in queries] == [f"q{i}" for i in range(1, 9)]

    def test_experiment_queries_with_random(self):
        config = dataclasses.replace(SMALL, include_random=True)
        assert len(experiment_queries(config)) == 28


class TestMeasurement:
    def test_measure_query_fields(self):
        scenario = build_scenario(SMALL)
        set_selectivity(scenario, 0.5, SMALL.policy_seed)
        measurement = measure_query(scenario, get_query("q1"), 0.5)
        assert measurement.query == "q1"
        assert measurement.original_rows == SMALL.patients
        assert 0 < measurement.rewritten_rows < measurement.original_rows
        assert measurement.compliance_checks > 0
        assert measurement.original_time > 0
        assert measurement.rewritten_time > 0

    def test_timed_loops_only_execute_plans_compiled_with_optimizer_off(
        self, monkeypatch
    ):
        """Both sides are planned before the clock starts: the timed loops
        construct no plan and run the two prepared ones, each in mode off."""
        from repro.bench import harness
        from repro.engine.database import PreparedQuery

        scenario = build_scenario(SMALL)
        set_selectivity(scenario, 0.5, SMALL.policy_seed)
        timing, planned, modes = [], [], []
        time_query = harness.time_query
        init, execute = PreparedQuery.__init__, PreparedQuery.execute

        def timed(run, repeat=1):
            timing.append(run)
            try:
                return time_query(run, repeat)
            finally:
                timing.pop()

        def counting_init(self, *args, **kwargs):
            planned.extend(timing)
            init(self, *args, **kwargs)

        def recording_execute(self, *args, **kwargs):
            if timing:
                modes.append(self.optimizer_mode)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(harness, "time_query", timed)
        monkeypatch.setattr(PreparedQuery, "__init__", counting_init)
        monkeypatch.setattr(PreparedQuery, "execute", recording_execute)
        measurement = measure_query(scenario, get_query("q5"), 0.5, repeat=3)
        assert planned == []
        assert modes == ["off"] * 6
        assert measurement.compliance_checks > 0


class TestExperiment1:
    @pytest.fixture(scope="class")
    def run(self):
        return run_experiment1(SMALL)

    def test_grid_complete(self, run):
        assert run.queries() == [f"q{i}" for i in range(1, 9)]
        assert run.selectivities() == [0.0, 0.5]
        assert len(run.measurements) == 16

    def test_figure6_shape_checks_decrease_with_selectivity(self, run):
        # The paper's headline trend: complexity never grows with selectivity
        # and strictly drops for filter/join queries (q4-q8).
        for name in ("q4", "q5", "q6", "q7", "q8"):
            low = run.cell(name, 0.0).compliance_checks
            high = run.cell(name, 0.5).compliance_checks
            assert high < low, name

    def test_figure6_no_filter_queries_flat(self, run):
        # q1/q2 have a single unfiltered signature: checks don't depend on s.
        for name in ("q1", "q2"):
            assert (
                run.cell(name, 0.0).compliance_checks
                == run.cell(name, 0.5).compliance_checks
            ), name

    def test_result_rows_shrink_with_selectivity(self, run):
        for name in ("q1", "q5"):
            assert (
                run.cell(name, 0.5).rewritten_rows
                <= run.cell(name, 0.0).rewritten_rows
            )

    def test_selectivity_zero_preserves_q1_results(self, run):
        cell = run.cell("q1", 0.0)
        assert cell.rewritten_rows == cell.original_rows

    def test_cell_lookup_unknown_raises(self, run):
        with pytest.raises(KeyError):
            run.cell("q1", 0.9)

    def test_figure_tables_render(self, run):
        fig6 = figure6_table(run)
        fig7 = figure7_table(run)
        assert "q1" in fig6 and "s=0.5" in fig6
        assert "orig" in fig7 and "rw s=0" in fig7


class TestExperiment2:
    def test_dataset_sweep(self):
        result = run_experiment2(
            dataclasses.replace(SMALL, include_random=False),
            samples_sweep=(2, 4),
        )
        assert [s.label for s in result.scenarios] == ["Scn 1", "Scn 2"]
        assert [s.sensed_rows for s in result.scenarios] == [30, 60]
        table = figure8_table(result)
        assert "Scn 1" in table and "Scn 2" in table

    def test_checks_grow_with_dataset(self):
        result = run_experiment2(
            dataclasses.replace(SMALL, include_random=False),
            samples_sweep=(2, 8),
        )
        small_run = result.scenarios[0].run
        big_run = result.scenarios[1].run
        assert (
            big_run.cell("q2", 0.4).compliance_checks
            > small_run.cell("q2", 0.4).compliance_checks
        )
