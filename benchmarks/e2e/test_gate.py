"""``--compare`` must fail on a regression: checks of ``run.py``'s verdicts.

No workload runs here.  Not collected by tier-1 (``testpaths = ["tests"]``)::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_gate.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC, GATES = run.load_spec(), run.load_gates()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tables(scale: dict | None = None) -> dict:
    """workload → metric → 100.0, times ``scale[(workload, metric)]``."""
    scale = scale or {}
    return {
        name: {m: 100.0 * scale.get((name, m), 1.0) for m in run.bounds_for(name, SPEC, GATES)}
        for name in WORKLOADS
    }


def _baseline(iqr: float = 0.0) -> dict:
    return {
        name: {m: {"q1": v - iqr / 2, "median": v, "q3": v + iqr / 2} for m, v in table.items()}
        for name, table in _tables().items()
    }


def test_same_numbers_are_no_regression():
    assert run.compare(_tables(), _baseline(), SPEC, GATES) == 0


@pytest.mark.parametrize(
    "workload, metric, factor",
    [
        ("read_hot", "latency_p50_ms", 1.30),  # lower is better
        ("sharded_read", "throughput_ops_s", 0.70),  # higher is better
        ("paper_overhead", "overhead_ratio", 1.06),  # a gates.json bound (5 %)
        ("write_mixed", "wal_bytes_per_commit", 1.001),
    ],
)
def test_a_worse_row_is_counted(workload, metric, factor):
    now = _tables({(workload, metric): factor})
    assert run.compare(now, _baseline(), SPEC, GATES) == 1


def test_better_is_not_worse():
    now = _tables({("read_hot", "latency_p50_ms"): 0.5, ("read_hot", "throughput_ops_s"): 2.0})
    assert run.compare(now, _baseline(), SPEC, GATES) == 0


def test_within_the_bound_is_not_worse():
    bound, _ = run.bounds_for("read_hot", SPEC, GATES)["latency_p50_ms"]
    now = _tables({("read_hot", "latency_p50_ms"): 1 + bound * 0.9})
    assert run.compare(now, _baseline(), SPEC, GATES) == 0


def test_a_base_noisier_than_the_bound_is_unresolved(capsys):
    now = _tables({("read_hot", "latency_p50_ms"): 1.30})
    assert run.compare(now, _baseline(iqr=60.0), SPEC, GATES) == 0
    assert "UNRESOLVED" in capsys.readouterr().out


def test_specific_metrics_are_gated_on_their_workloads_only():
    assert "overhead_ratio" in run.bounds_for("paper_overhead", SPEC, GATES)
    assert "overhead_ratio" not in run.bounds_for("read_hot", SPEC, GATES)
    assert "wal_bytes_per_commit" in run.bounds_for("write_mixed", SPEC, GATES)


def test_every_bound_lives_in_one_place():
    driver_gated = {m["name"] for m in SPEC["end_to_end"]}
    declared = {m["name"] for m in SPEC["per_layer"]}
    for metric, gate in GATES["specific"].items():
        assert metric in declared and metric not in driver_gated
        assert set(gate["workloads"]) <= set(WORKLOADS)


def test_compare_exits_non_zero_on_a_regression(monkeypatch, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"workloads": _baseline()}))
    slow = {**_tables({("read_hot", "latency_p50_ms"): 1.30})["read_hot"], "failed": 0}
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setattr(run.machine, "pin", lambda: None)
    monkeypatch.setattr(run, "several", lambda names, runs, *rest: {n: [slow] * runs for n in names})
    assert run.main(["--workload", "read_hot", "--compare", str(baseline)]) == 1
    assert "WORSE" in capsys.readouterr().out
    fine = {**_tables()["read_hot"], "failed": 0}
    monkeypatch.setattr(run, "several", lambda names, runs, *rest: {n: [fine] * runs for n in names})
    assert run.main(["--workload", "read_hot", "--compare", str(baseline)]) == 0
