"""Command-line entry point: ``python -m repro.bench <figure>``.

Regenerates the paper's figures as plain-text tables::

    python -m repro.bench fig6              # compliance checks per query
    python -m repro.bench fig7              # time vs policy selectivity
    python -m repro.bench fig8              # time vs dataset size
    python -m repro.bench cub               # §5.6 bound vs measured checks
    python -m repro.bench all               # everything
    python -m repro.bench fig7 --patients 1000 --samples 1000   # paper scale

The default dataset is 10 patients × 10 samples, which keeps the
pure-Python engine within seconds per figure.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse

from .experiments import run_experiment1, run_experiment2
from .harness import ExperimentConfig, PAPER_SELECTIVITIES
from .reporting import cub_table, figure6_table, figure7_table, figure8_table


def main(argv: list[str] | None = None) -> int:
    """Run the selected experiment(s) and print the figure tables."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "figure",
        choices=("fig6", "fig7", "fig8", "cub", "all"),
        help="which figure to regenerate (cub = §5.6 bound vs measured)",
    )
    parser.add_argument("--patients", type=int, default=10)
    parser.add_argument(
        "--samples", type=int, default=10, help="samples per patient"
    )
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
    args = parser.parse_args(argv)
    config = ExperimentConfig(
        patients=args.patients,
        samples_per_patient=args.samples,
        selectivities=tuple(args.selectivities),
        include_random=not args.no_random,
        repeat=args.repeat,
    )

    if args.figure in ("fig6", "fig7", "all"):
        run = run_experiment1(config)
        if args.figure in ("fig6", "all"):
            print(figure6_table(run))
            print()
        if args.figure in ("fig7", "all"):
            print(figure7_table(run))
            print()
    if args.figure in ("fig8", "all"):
        print(figure8_table(run_experiment2(config)))
        if args.figure == "all":
            print()
    if args.figure in ("cub", "all"):
        print(cub_table(config))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
