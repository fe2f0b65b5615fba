"""Command-line entry point: ``python -m repro.bench <figure>``.

Regenerates the paper's figures as plain-text tables::

    python -m repro.bench fig6              # compliance checks per query
    python -m repro.bench fig7              # time vs policy selectivity
    python -m repro.bench fig8              # time vs dataset size
    python -m repro.bench optimizer         # per-row checks vs policy bitmaps
    python -m repro.bench columnar          # row vs batch executor latency
    python -m repro.bench shards            # threaded vs async sharded qps
    python -m repro.bench all               # everything
    python -m repro.bench fig7 --patients 1000 --samples 1000   # paper scale

Dataset sizes default to the paper's sizes times ``REPRO_SCALE``
(default 0.01).
"""

from __future__ import annotations

import argparse
import json

from .experiments import (
    INDEXES_SIZES,
    run_columnar,
    run_experiment1,
    run_experiment2,
    run_hotpath,
    run_indexes,
    run_optimizer,
)
from .harness import ExperimentConfig, PAPER_SELECTIVITIES
from .reporting import (
    columnar_table,
    figure6_table,
    figure7_table,
    figure8_table,
    hotpath_table,
    indexes_table,
    optimizer_table,
    shards_table,
)
from .shards import run_shards


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    if args.patients is not None:
        overrides["patients"] = args.patients
    if args.samples is not None:
        overrides["samples_per_patient"] = args.samples
    if args.selectivities:
        overrides["selectivities"] = tuple(args.selectivities)
    overrides["include_random"] = not args.no_random
    overrides["repeat"] = args.repeat
    return ExperimentConfig.scaled(**overrides)


def _build_columnar_config(args: argparse.Namespace) -> ExperimentConfig:
    """The columnar experiment defaults to unscaled sizes (see run_columnar)."""
    overrides = {}
    if args.patients is not None:
        overrides["patients"] = args.patients
    if args.samples is not None:
        overrides["samples_per_patient"] = args.samples
    overrides["include_random"] = not args.no_random
    overrides["repeat"] = args.repeat
    return ExperimentConfig(**overrides)


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiment(s) and print the figure tables."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=(
            "fig6",
            "fig7",
            "fig8",
            "cub",
            "hotpath",
            "optimizer",
            "columnar",
            "indexes",
            "shards",
            "all",
        ),
        help=(
            "which figure to regenerate (cub = §5.6 bound vs measured, "
            "hotpath = cold vs cached prepared-pipeline latency, "
            "optimizer = per-row checks vs policy-bitmap pre-filtering, "
            "columnar = row vs batch executor latency sweep, "
            "indexes = full-scan vs index vs partition-pruned access paths, "
            "shards = threaded baseline vs async sharded throughput)"
        ),
    )
    parser.add_argument("--patients", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None, help="samples per patient")
    parser.add_argument(
        "--selectivities",
        type=float,
        nargs="+",
        default=list(PAPER_SELECTIVITIES),
        help="policy selectivity sweep (default: 0 0.2 0.4 0.6)",
    )
    parser.add_argument(
        "--no-random",
        action="store_true",
        help="run q1-q8 only (skip the r1-r20 random batch)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="timing repetitions (best-of)"
    )
    parser.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[1, 4, 8, 16],
        help="client-session sweep for the shards experiment",
    )
    parser.add_argument(
        "--shard-counts",
        type=int,
        nargs="+",
        default=[1, 3],
        help="shard counts for the async rows of the shards experiment",
    )
    parser.add_argument(
        "--backend",
        choices=("inline", "process"),
        default="inline",
        help="shard transport for the shards experiment",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=list(INDEXES_SIZES),
        help="sensed_data row counts for the indexes experiment",
    )
    parser.add_argument(
        "--queries-per-session",
        type=int,
        default=8,
        help="statement-mix iterations per session (shards experiment)",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help=(
            "where the shards/hotpath/optimizer/columnar experiments "
            "write their JSON summaries (defaults: BENCH_<figure>.json)"
        ),
    )
    args = parser.parse_args(argv)
    config = _build_config(args)

    if args.figure in ("fig6", "fig7", "all"):
        run = run_experiment1(config)
        if args.figure in ("fig6", "all"):
            print(figure6_table(run))
            print()
        if args.figure in ("fig7", "all"):
            print(figure7_table(run))
            print()
    if args.figure in ("fig8", "all"):
        result = run_experiment2(config)
        print(figure8_table(result))
        if args.figure == "all":
            print()
    if args.figure in ("cub", "all"):
        print(cub_table(config))
        if args.figure == "all":
            print()
    if args.figure in ("hotpath", "all"):
        run = run_hotpath(config)
        print(hotpath_table(run))
        json_path = (
            args.json_out if args.figure == "hotpath" and args.json_out else None
        ) or "BENCH_hotpath.json"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
        if args.figure == "all":
            print()
    if args.figure in ("optimizer", "all"):
        run = run_optimizer(config)
        print(optimizer_table(run))
        json_path = (
            args.json_out if args.figure == "optimizer" and args.json_out else None
        ) or "BENCH_optimizer.json"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
        if args.figure == "all":
            print()
    if args.figure in ("columnar", "all"):
        run = run_columnar(_build_columnar_config(args))
        print(columnar_table(run))
        json_path = (
            args.json_out if args.figure == "columnar" and args.json_out else None
        ) or "BENCH_columnar.json"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
        if args.figure == "all":
            print()
    if args.figure in ("indexes", "all"):
        run = run_indexes(sizes=tuple(args.sizes))
        print(indexes_table(run))
        json_path = (
            args.json_out if args.figure == "indexes" and args.json_out else None
        ) or "BENCH_indexes.json"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
        if args.figure == "all":
            print()
    if args.figure in ("shards", "all"):
        run = run_shards(
            config,
            client_counts=tuple(args.clients),
            shard_counts=tuple(args.shard_counts),
            queries_per_session=args.queries_per_session,
            backend=args.backend,
        )
        print(shards_table(run))
        json_path = (
            args.json_out if args.figure == "shards" and args.json_out else None
        ) or "BENCH_shards.json"
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(run.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {json_path}")
    return 0


def cub_table(config: ExperimentConfig) -> str:
    """Section 5.6: static upper bound vs measured checks per query."""
    import dataclasses

    from ..core import SignatureDeriver, complexity_upper_bound
    from .harness import BENCH_PURPOSE, build_scenario, set_selectivity
    from .reporting import _format_table

    selectivity = 0.4
    scenario = build_scenario(config)
    set_selectivity(scenario, selectivity, config.policy_seed)
    deriver = SignatureDeriver(scenario.admin, scenario.admin)
    from .harness import experiment_queries

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


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
