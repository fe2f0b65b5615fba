"""Figure 6 and the §5.6 table, pinned byte for byte.

Both are deterministic counts: ``compliesWith`` invocations per query under
the paper's per-row model (Fig. 6), and the static bound beside the checks
a default execution measures (§5.6).  A change to signature derivation,
the rewriter, the per-row pipeline or the policy guards that moves either
table fails here with a diff.

To accept new tables intentionally::

    PYTHONPATH=src python -m pytest tests/bench/test_golden.py --update-golden
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ARGS = (
    "--patients", "10", "--samples", "4", "--no-random",
    "--selectivities", "0", "0.4",
)


@pytest.mark.parametrize("figure", ("fig6", "cub"))
def test_count_table_matches_golden(capsys, figure, update_golden) -> None:
    assert main([figure, *ARGS]) == 0
    text = capsys.readouterr().out
    path = GOLDEN_DIR / f"{figure}.txt"
    if update_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert text == path.read_text(encoding="utf-8"), (
        f"{figure} drifted; if intentional, rerun with --update-golden and "
        "commit the diff"
    )
