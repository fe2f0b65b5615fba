"""Plain-text rendering of the experiment results.

Prints the same rows/series the paper's figures report: per-query compliance
check counts across selectivities (Figure 6), original vs rewritten
execution times across selectivities (Figure 7) and across dataset sizes
(Figure 8).
"""

from __future__ import annotations

from .experiments import Experiment2Result
from .shards import ShardsRun
from .harness import (
    ColumnarRun,
    ExperimentRun,
    HotPathRun,
    IndexesRun,
    OptimizerRun,
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


def hotpath_table(run: HotPathRun) -> str:
    """Prepared pipeline: cold vs cached enforcement latency (ms).

    ``cold`` is the full parse → sign → rewrite → plan → execute pipeline
    on an empty plan cache, ``prep`` the pipeline without execution, and
    ``hot`` an execution through the epoch-keyed plan cache; ``speedup``
    is cold/hot averaged across the selectivity sweep.
    """
    selectivities = run.selectivities()
    header = ["query"]
    for s in selectivities:
        header.extend([f"s={s:g} cold", "prep", "hot"])
    header.append("speedup")
    rows = []
    for query in run.queries():
        row = [query]
        speedups = []
        for s in selectivities:
            cell = run.cell(query, s)
            row.extend(
                [_ms(cell.cold_time), _ms(cell.prepare_time), _ms(cell.cached_time)]
            )
            speedups.append(cell.speedup)
        row.append(f"{sum(speedups) / len(speedups):.1f}x" if speedups else "-")
        rows.append(row)
    title = (
        f"Prepared pipeline — cold vs cached enforcement latency (ms) "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient})"
    )
    hit_line = (
        f"plan-cache hit rate over cached executions: {run.hit_rate():.0%}"
    )
    return f"{title}\n{_format_table(header, rows)}\n{hit_line}"


def columnar_table(run: ColumnarRun) -> str:
    """Columnar executor comparison: row vs batch latency per query.

    ``rows`` is the enforced result cardinality, ``row`` the cached-plan
    latency (ms) under the tuple-at-a-time reference executor, each
    ``batch=N`` column the same latency under the batch executor at that
    page size, and ``speedup`` the row/batch ratio at the default (largest)
    page size.  The footer aggregates total row time over total batch time.
    """
    header = ["query", "rows", "row"]
    header.extend(f"batch={size}" for size in run.batch_sizes)
    header.append("speedup")
    rows = []
    for m in run.measurements:
        row = [m.query, str(m.rows_returned), _ms(m.row_time)]
        row.extend(_ms(m.batch_times[size]) for size in run.batch_sizes)
        row.append(f"{m.speedup(run.default_batch_size):.2f}x")
        rows.append(row)
    title = (
        f"Columnar — row vs batch executor, cached plans "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient}, "
        f"s={run.selectivity:g})"
    )
    summary = (
        f"aggregate speedup at batch={run.default_batch_size}: "
        f"{run.aggregate_speedup():.2f}x; "
        f"result mismatches: {len(run.mismatches())}"
    )
    return f"{title}\n{_format_table(header, rows)}\n{summary}"


def optimizer_table(run: OptimizerRun) -> str:
    """Optimizer comparison: per-row checks vs bitmap builds, per query.

    ``off`` is the per-row evaluation count (the Figure 6 metric), ``on``
    the ``compliesWith`` invocations the bitmap-pre-filtered plan performs
    from a cold bitmap cache, ``warm`` a repeat execution with the bitmaps
    already built, and ``bound`` the static distinct-policy-value ceiling
    the optimized plan must respect.  ``hot off``/``hot on`` are cached-plan
    execution latencies (ms) averaged across the selectivity sweep.
    """
    selectivities = run.selectivities()
    header = ["query"]
    for s in selectivities:
        header.extend([f"s={s:g} off", "on", "warm", "bound"])
    header.extend(["hot off", "hot on"])
    rows = []
    for query in run.queries():
        row = [query]
        off_times: list[float] = []
        on_times: list[float] = []
        for s in selectivities:
            cell = run.cell(query, s)
            row.extend(
                [
                    str(cell.checks_off),
                    str(cell.checks_on_cold),
                    str(cell.checks_on_warm),
                    str(cell.bitmap_bound),
                ]
            )
            off_times.append(cell.cached_time_off)
            on_times.append(cell.cached_time_on)
        row.append(_ms(sum(off_times) / len(off_times)) if off_times else "-")
        row.append(_ms(sum(on_times) / len(on_times)) if on_times else "-")
        rows.append(row)
    title = (
        f"Optimizer — compliesWith cost, per-row vs policy bitmaps "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient})"
    )
    summary = (
        f"bound violations: {len(run.violations())}; "
        f"result mismatches: {len(run.mismatches())}"
    )
    return f"{title}\n{_format_table(header, rows)}\n{summary}"


def shards_table(run: ShardsRun) -> str:
    """Scale-out sweep: threaded baseline vs async sharded, per client count.

    ``server``/``shards`` name the flavor (the thread-per-connection
    baseline reports 0 shards); ``qps`` counts completed statements per
    second across all sessions; ``p50``/``p95`` are per-statement
    round-trip latencies; ``hit`` is the plan-cache hit share; ``busy``
    the number of ``server_busy`` backpressure responses clients absorbed.
    """
    header = [
        "server", "shards", "clients", "queries",
        "qps", "p50 ms", "p95 ms", "hit", "busy",
    ]
    rows = []
    for sample in run.samples:
        rows.append(
            [
                sample.server,
                str(sample.shards) if sample.shards else "-",
                str(sample.clients),
                str(sample.queries),
                f"{sample.throughput:.0f}",
                _ms(sample.percentile(0.50)),
                _ms(sample.percentile(0.95)),
                f"{sample.hit_rate:.0%}",
                str(sample.busy_responses),
            ]
        )
    title = (
        f"Scale-out — threaded baseline vs async sharded throughput "
        f"(patients={run.config.patients}, "
        f"samples={run.config.samples_per_patient}, "
        f"selectivity={run.selectivity:g}, backend={run.backend})"
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


def indexes_table(run: IndexesRun) -> str:
    """Access-path comparison: full scan vs index vs partition pruning.

    One row per swept ``sensed_data`` size.  ``scan``/``index`` are the
    unenforced selective-probe latencies (ms) and ``speedup`` their ratio;
    ``guard``/``pruned`` the enforced latencies without and with the
    policy-partitioned index, with ``skips`` the partitions the pruned run
    never touched (out of ``parts``).
    """
    header = [
        "rows", "hit", "scan", "index", "speedup",
        "guard", "pruned", "p-speedup", "parts", "skips",
    ]
    rows = []
    for m in run.measurements:
        rows.append(
            [
                str(m.rows),
                str(m.rows_returned),
                _ms(m.full_scan_time),
                _ms(m.index_time),
                f"{m.index_speedup:.2f}x",
                _ms(m.guard_full_time),
                _ms(m.guard_partitioned_time),
                f"{m.partitioned_speedup:.2f}x",
                str(m.partition_count),
                str(m.partition_skips),
            ]
        )
    title = (
        f"Indexes — selective probe per access path "
        f"(s={run.selectivity:g}, samples={run.samples_per_patient})"
    )
    mismatches = sum(1 for m in run.measurements if not m.rows_match)
    return f"{title}\n{_format_table(header, rows)}\nresult mismatches: {mismatches}"
