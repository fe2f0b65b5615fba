"""Plain-text rendering of the experiment results.

Prints the same rows/series the paper's figures report: per-query compliance
check counts across selectivities (Figure 6), original vs rewritten
execution times across selectivities (Figure 7) and across dataset sizes
(Figure 8), and the static ``cub(q)`` bound beside the measured count (§5.6).
"""

from __future__ import annotations

from ..core import SignatureDeriver, complexity_upper_bound
from .experiments import Experiment2Result
from .harness import (
    BENCH_PURPOSE,
    ExperimentConfig,
    ExperimentRun,
    build_scenario,
    experiment_queries,
    set_selectivity,
)


def _format_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: list[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))

    separator = "  ".join("-" * width for width in widths)
    return "\n".join([line(header), separator, *[line(row) for row in rows]])


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f}"


def figure6_table(run: ExperimentRun) -> str:
    """Figure 6: policy compliance checks per query, by selectivity."""
    selectivities = run.selectivities()
    header = ["query", *[f"s={s:g}" for s in selectivities]]
    rows = []
    for query in run.queries():
        rows.append(
            [query]
            + [str(run.cell(query, s).compliance_checks) for s in selectivities]
        )
    title = (
        f"Figure 6 — compliance checks per query "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient})"
    )
    return f"{title}\n{_format_table(header, rows)}"


def figure7_table(run: ExperimentRun) -> str:
    """Figure 7: execution time (ms) vs policy selectivity."""
    selectivities = run.selectivities()
    header = ["query", "orig", *[f"rw s={s:g}" for s in selectivities]]
    rows = []
    for query in run.queries():
        baseline = run.cell(query, selectivities[0]).original_time
        rows.append(
            [query, _ms(baseline)]
            + [_ms(run.cell(query, s).rewritten_time) for s in selectivities]
        )
    title = (
        f"Figure 7 — query execution time (ms) vs policy selectivity "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient})"
    )
    return f"{title}\n{_format_table(header, rows)}"


def figure8_table(result: Experiment2Result) -> str:
    """Figure 8: execution time (ms) vs dataset size at selectivity 0.4."""
    if not result.scenarios:
        return "Figure 8 — (no scenarios)"
    queries = result.scenarios[0].run.queries()
    header = ["query"]
    for scenario in result.scenarios:
        header.append(f"{scenario.label} orig ({scenario.sensed_rows} rows)")
        header.append(f"{scenario.label} rw")
    rows = []
    for query in queries:
        row = [query]
        for scenario in result.scenarios:
            selectivity = scenario.run.selectivities()[0]
            cell = scenario.run.cell(query, selectivity)
            row.append(_ms(cell.original_time))
            row.append(_ms(cell.rewritten_time))
        rows.append(row)
    title = "Figure 8 — query execution time (ms) vs dataset size (s=0.4)"
    return f"{title}\n{_format_table(header, rows)}"


def cub_table(config: ExperimentConfig) -> str:
    """Section 5.6: static upper bound vs measured checks per query."""
    selectivity = 0.4
    scenario = build_scenario(config)
    set_selectivity(scenario, selectivity, config.policy_seed)
    deriver = SignatureDeriver(scenario.admin, scenario.admin)
    rows = []
    for query in experiment_queries(config):
        signature = deriver.derive(query.sql, BENCH_PURPOSE)
        estimate = complexity_upper_bound(query.sql, signature, scenario.database)
        report = scenario.monitor.execute_with_report(query.sql, BENCH_PURPOSE)
        ratio = (
            f"{report.compliance_checks / estimate.upper_bound:.2f}"
            if estimate.upper_bound
            else "-"
        )
        rows.append(
            [
                query.name,
                str(estimate.upper_bound),
                str(report.compliance_checks),
                ratio,
            ]
        )
    title = (
        f"Section 5.6 — cub(q) vs measured checks at s={selectivity:g} "
        f"(patients={config.patients}, samples={config.samples_per_patient})"
    )
    table = _format_table(["query", "cub", "measured", "measured/cub"], rows)
    return f"{title}\n{table}"
