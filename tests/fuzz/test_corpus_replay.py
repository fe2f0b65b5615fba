"""Replays every corpus file through all production enforcement paths.

The corpus under ``tests/corpus/`` holds repro-format files: the paper's
q1–q8 and r1–r20 workloads plus one case per fuzzer shape family and a
denied submission, each oracle-checked when the corpus was built
(``python -m repro.fuzz.corpus``).  Replaying them on every test run keeps
the whole differential harness — oracle, all five paths, audit and
invariant checks — pinned against regressions without paying for a fuzzing
campaign in tier-1 time.

Each file replays twice: through the full optimizer pipeline, and — the
``rowcheck-*`` leg — through a monitor pinned to ``optimizer="off"``, the
paper's per-row ``complieswith`` pipeline that Fig. 6 counts, in process
and over the wire alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.fuzz import DifferentialRunner, FORMAT, load_repro
from repro.fuzz.scenario import ScenarioSpec

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


@pytest.fixture(scope="module")
def corpus_runner():
    """One world + server shared by all corpus replays (files pin the
    same default spec, asserted per-file below)."""
    with DifferentialRunner(spec=ScenarioSpec()) as runner:
        yield runner


@pytest.fixture(scope="module")
def rowcheck_runner():
    """The same harness with the monitor on the per-row pipeline."""
    with DifferentialRunner(spec=ScenarioSpec()) as runner:
        runner.world.monitor.set_optimizer("off")
        yield runner


def test_corpus_is_present() -> None:
    assert len(CORPUS_FILES) >= 30, "regression corpus missing or truncated"


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_case_replays_clean(corpus_runner, path: Path) -> None:
    spec, case, recorded_failures = load_repro(path)
    assert recorded_failures == [], f"{path.name} records unresolved failures"
    assert spec == ScenarioSpec(), (
        f"{path.name} pins a non-default spec; rebuild the module fixture "
        "per spec if corpus worlds ever diverge"
    )
    report = corpus_runner.run_case(case)
    assert report.ok, report.describe()


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[f"rowcheck-{p.stem}" for p in CORPUS_FILES]
)
def test_corpus_case_replays_clean_per_row(rowcheck_runner, path: Path) -> None:
    _, case, _ = load_repro(path)
    report = rowcheck_runner.run_case(case)
    assert report.ok, report.describe()
    assert {p.path for p in report.paths} >= {"ad-hoc", "server-query"}


def test_corpus_files_are_wellformed() -> None:
    for path in CORPUS_FILES:
        payload = json.loads(path.read_text())
        assert payload["format"] == FORMAT, path.name
        assert set(payload) == {"format", "spec", "case", "failures"}, path.name
