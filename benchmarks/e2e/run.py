"""The repo's benchmark: one enforced request path, five workloads.

Driver contract (``BENCHMARK.json`` names this file)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints a human table and, as the *last* line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``).

For people::

    python3 benchmarks/e2e/run.py                      # every workload, once
    python3 benchmarks/e2e/run.py --trace 1            # + per-layer metrics, span files
    python3 benchmarks/e2e/run.py --selfcheck          # two sets of runs must agree
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/baseline.json   # exit 1 if WORSE

See ``README.md`` beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
    print(f"run.py: no src/repro or BENCHMARK.json under {ROOT}; nothing to measure", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(ROOT / "src"))

import machine  # noqa: E402
import ops  # noqa: E402
import world  # noqa: E402
from workloads import RESULTS, WORKLOADS, Outcome  # noqa: E402

#: Hard wall-clock limit for one workload run (the driver allows 180 s).
WORKLOAD_TIMEOUT_S = 170

#: Seed of every form that is not given one (the driver always gives one).
DEFAULT_SEED = 1
#: Runs per workload behind the committed baseline: the measuring rule's ten.
BASELINE_RUNS = 10
#: Runs per side behind every verdict of this file (``--selfcheck``,
#: ``--compare``): a verdict is taken on medians, never on one run — two
#: single runs of the same code differ by more than a 10 % bound too often.
VERDICT_RUNS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_gates() -> dict:
    return json.loads((HERE / "gates.json").read_text())


def bounds_for(workload: str, spec: dict, gates: dict) -> dict[str, tuple[float, str]]:
    """metric → (bound, better) of every bounded metric ``workload`` reports.

    ``BENCHMARK.json``'s end-to-end metrics apply to every workload;
    ``gates.json`` adds the end-to-end metrics only some workloads have.
    """
    out = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    for metric, gate in gates["specific"].items():
        if workload in gate["workloads"]:
            out[metric] = (gate["bound"], better[metric])
    return out


def unbounded_in(values: dict, gates: dict) -> list[str]:
    """The end-to-end metrics without a bound of their own that this run has:
    too noisy here to hold to one (README: demoted, not widened), or gated
    under another name.  Printed and recorded with the bounded ones."""
    return [metric for metric in gates["reported_without_bound"] if values.get(metric)]


def values_of(outcome: Outcome) -> dict:
    return {**outcome.layer, **outcome.e2e, "attempted": outcome.attempted, "failed": outcome.failed}


def worsening(now: float, base: float, better: str) -> float:
    """By what share of ``base`` is ``now`` worse (negative: better)."""
    return now / base - 1 if better == "lower" else 1 - now / base


class _Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise _Timeout(f"workload exceeded {WORKLOAD_TIMEOUT_S} s")


def to_reference_time(outcome: Outcome, spec: dict) -> None:
    """Put a run's wall-clock numbers into reference-machine time, once.

    The metric's declared unit decides: times are divided by the run's
    slowdown (``machine.py``) — or by that of the metric's own spins, if it
    has any — rates multiplied, everything else kept.
    """
    factor = machine.slowdown(outcome.spins)
    outcome.layer.update(
        {
            "raw.latency_p50_ms": outcome.e2e["latency_p50_ms"],
            "raw.throughput_ops_s": outcome.e2e["throughput_ops_s"],
            "machine.slowdown": factor,
        }
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for table in (outcome.e2e, outcome.layer):
        for metric in table:
            if metric.startswith("raw."):
                continue
            own = outcome.own_spins.get(metric)
            by = factor if own is None else machine.slowdown(own)
            if units.get(metric) in ("ms", "s", "us", "ns"):
                table[metric] /= by
            elif units.get(metric) == "1/s":
                table[metric] *= by
    outcome.trace_ops = [
        (op, seconds if seconds is None else seconds / factor) for op, seconds in outcome.trace_ops
    ]


def run_here(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> Outcome:
    """Run one workload in this process, under the hard timeout.

    Server children die with the workload's ``ExitStack`` whatever happens;
    the scratch directory (WAL directories live there) goes with it.
    """
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WORKLOAD_TIMEOUT_S)
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        expected = ops.Expected(world.build_single_world().monitor)
        outcome = WORKLOADS[name](seed, seconds, expected, scratch)
        to_reference_time(outcome, spec)
        if traced:
            import layers

            layers.trace(name, seed, outcome, scratch, RESULTS / f"trace-{name}.json")
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
    outcome.layer["failed_share"] = outcome.failed / max(1, outcome.attempted)
    return outcome


def run_isolated(name: str, seed: int, seconds: float, traced: bool, show: bool) -> Outcome:
    """Run one workload the way the driver does: a process of its own.

    Peak memory, the hash seed and allocator state then never leak from one
    run into the next.  The child hands its full outcome back in a file.
    """
    RESULTS.mkdir(exist_ok=True)
    handle, handoff = tempfile.mkstemp(prefix="outcome-", suffix=".json", dir=RESULTS)
    os.close(handle)
    command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(int(traced)), "--outcome-file", handoff]
    try:
        done = subprocess.run(
            command,
            stdout=None if show else subprocess.DEVNULL,
            timeout=WORKLOAD_TIMEOUT_S + 10,
        )
        text = Path(handoff).read_text()
    finally:
        os.unlink(handoff)
    if not text:
        raise SystemExit(f"{name}: run exited {done.returncode} without an outcome")
    return Outcome(**json.loads(text))


def result_line(outcome: Outcome, spec: dict, traced: bool) -> str:
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    source = outcome.layer if traced else outcome.e2e
    metrics = {
        m["name"]: {"value": float(source.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )


def print_table(name: str, outcome: Outcome, spec: dict, gates: dict, traced: bool) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(
        f"== {name}: attempted {outcome.attempted}, failed {outcome.failed} "
        f"(failed_share {outcome.layer['failed_share']:.4f}), samples {outcome.samples}"
    )
    values = values_of(outcome)
    headline = [*bounds_for(name, spec, gates), *unbounded_in(values, gates)]
    for metric in headline:
        print(f"  {metric:<34} {values[metric]:>14.4f} {units[metric]}")
    if traced:
        for metric in sorted(set(outcome.layer) - set(headline)):
            print(f"    {metric:<40} {outcome.layer[metric]:>14.4f} {units.get(metric, '')}")
    sys.stdout.flush()


# -- selfcheck / compare / baseline ---------------------------------------------


def several(names, runs: int, seed: int, seconds: float, note: str) -> dict[str, list[dict]]:
    """``runs`` sets of runs, same seed, every second set in reverse order.

    → workload → the value table (:func:`values_of`) of each of its runs.
    """
    out: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(runs):
        for name in names if index % 2 == 0 else list(reversed(names)):
            out[name].append(values_of(run_isolated(name, seed, seconds, False, show=False)))
            print(f"{note}: {name} run {index + 1}/{runs}", file=sys.stderr)
    return out


def medians(tables: list[dict], metrics) -> dict[str, float]:
    return {metric: statistics.median(t[metric] for t in tables) for metric in metrics}


def selfcheck(names, seed: int, seconds: float, spec: dict, gates: dict) -> int:
    """Two interleaved sets of ``VERDICT_RUNS`` runs of the same code must agree.

    Bounded metrics: the two sets' medians may differ by at most the bound.
    Exact counters: identical on every run of both sets.
    """
    tables = several(names, 2 * VERDICT_RUNS, seed, seconds, "selfcheck")
    bad = 0
    for name in names:
        print(f"== {name}")
        bounds = bounds_for(name, spec, gates)
        first = medians(tables[name][0::2], bounds)
        second = medians(tables[name][1::2], bounds)
        for metric, (bound, _better) in bounds.items():
            a, b = first[metric], second[metric]
            spread = abs(a - b) / min(a, b)
            verdict = "ok" if spread <= bound else "FAIL"
            bad += verdict == "FAIL"
            print(f"  {metric:<28} {a:>12.4f} {b:>12.4f}  spread {spread:8.3%}  bound {bound:7.2%}  {verdict}")
        for counter in gates["exact"]:
            if counter in gates["follows_the_clock"].get(name, ()):
                continue
            seen = sorted({t.get(counter, 0) for t in tables[name]})
            verdict = "ok" if len(seen) == 1 else "FAIL"
            bad += verdict == "FAIL"
            print(f"  {counter:<28} {' '.join(map(str, seen)):>25}  exact  {verdict}")
        if any(t["failed"] for t in tables[name]):
            bad += 1
            print("  FAIL: operations failed")
    print("selfcheck:", "FAILED" if bad else "passed")
    return 1 if bad else 0


def compare(now: dict[str, dict], baseline: dict, spec: dict, gates: dict) -> int:
    """One row per (workload, metric): now, base, ratio, bound, verdict.

    ``now``: workload → metric → this tree's median of ``VERDICT_RUNS`` runs
    (bounded and unbounded metrics);
    ``baseline``: the ``workloads`` table of a baseline file.  Returns how
    many rows are WORSE than the base by more than the bound.  A row whose
    base runs spread (Q3 − Q1) by more than the bound is UNRESOLVED instead:
    the baseline cannot tell a regression of that size from noise.
    """
    worse = 0
    print(f"{'workload':<15} {'metric':<26} {'now':>12} {'base (median)':>14} {'now/base':>9} {'bound':>8}")
    for name, values in now.items():
        for metric, (bound, better) in bounds_for(name, spec, gates).items():
            base = baseline.get(name, {}).get(metric)
            if not base:
                print(f"{name:<15} {metric:<26} {values[metric]:>12.4f} {'-':>14}")
                continue
            flag = ""
            if worsening(values[metric], base["median"], better) > bound:
                if (base["q3"] - base["q1"]) / base["median"] > bound:
                    flag = "  UNRESOLVED"
                else:
                    flag = "  WORSE"
                    worse += 1
            print(
                f"{name:<15} {metric:<26} {values[metric]:>12.4f} {base['median']:>14.4f} "
                f"{values[metric] / base['median']:>9.3f} {bound:>8.2%}{flag}"
            )
        for metric in unbounded_in(values, gates):
            base = baseline.get(name, {}).get(metric)
            if base:
                print(
                    f"{name:<15} {metric:<26} {values[metric]:>12.4f} {base['median']:>14.4f} "
                    f"{values[metric] / base['median']:>9.3f} {'none':>8}"
                )
    print("compare:", f"{worse} WORSE" if worse else "no regression beyond a bound")
    return worse


def _filesystem(path: Path) -> str:
    best = ("", "unknown")
    for line in Path("/proc/mounts").read_text().splitlines():
        _device, mount, kind = line.split()[:3]
        if str(path.resolve()).startswith(mount) and len(mount) > len(best[0]):
            best = (mount, kind)
    return best[1]


def write_baseline(names, seed: int, seconds: float, spec: dict, gates: dict, path: Path) -> None:
    """``BASELINE_RUNS`` runs per workload on seeds seed, seed+1, …: medians and quartiles."""
    workloads = {}
    for name in names:
        series: dict[str, list[float]] = {}
        samples = {}
        for offset in range(BASELINE_RUNS):
            outcome = run_isolated(name, seed + offset, seconds, False, show=False)
            if outcome.failed:
                raise SystemExit(f"{name}: {outcome.failed} failed operations; no baseline written")
            values = values_of(outcome)
            for metric in [*bounds_for(name, spec, gates), *unbounded_in(values, gates)]:
                series.setdefault(metric, []).append(values[metric])
            samples = outcome.samples
            print(f"baseline {name} run {offset + 1}/{BASELINE_RUNS}", file=sys.stderr)
        workloads[name] = {
            metric: dict(
                zip(("q1", "median", "q3"), statistics.quantiles(values, n=4)),
                runs=len(values),
            )
            for metric, values in series.items()
        }
        workloads[name]["samples_per_run"] = samples
    RESULTS.mkdir(exist_ok=True)
    document = {
        "note": "seed-commit numbers; first row of the trajectory",
        "seeds": [seed + offset for offset in range(BASELINE_RUNS)],
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "wal_dir_filesystem": _filesystem(RESULTS),
        "scale": {"patients": world.PATIENTS, "samples": world.SAMPLES, "selectivity": world.SELECTIVITY},
        "workloads": workloads,
    }
    path.write_text(json.dumps(document, indent=1) + "\n")


def main(argv=None) -> int:
    spec, gates = load_spec(), load_gates()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", type=Path, metavar="BASELINE")
    parser.add_argument("--write-baseline", type=Path, metavar="PATH")
    parser.add_argument("--outcome-file", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    chosen = [args.workload] if args.workload else names
    traced = bool(args.trace)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same reason as for the server child (wire.py): one hash seed for
        # every run, or in-process timings wander a few percent per process.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    machine.pin()

    if args.selfcheck:
        return selfcheck(chosen, args.seed, args.seconds, spec, gates)
    if args.write_baseline:
        write_baseline(chosen, args.seed, args.seconds, spec, gates, args.write_baseline)
        return 0
    if args.compare:
        baseline = json.loads(args.compare.read_text())["workloads"]
        tables = several(chosen, VERDICT_RUNS, args.seed, args.seconds, "compare")
        if any(t["failed"] for runs in tables.values() for t in runs):
            print("compare: operations failed")
            return 1
        now = {
            n: medians(tables[n], [*bounds_for(n, spec, gates), *unbounded_in(tables[n][0], gates)])
            for n in chosen
        }
        return 1 if compare(now, baseline, spec, gates) else 0
    if args.workload:  # the driver's form: measure right here
        outcome = run_here(args.workload, args.seed, args.seconds, traced, spec)
        print_table(args.workload, outcome, spec, gates, traced)
        if args.outcome_file:
            document = {k: v for k, v in dataclasses.asdict(outcome).items() if k != "trace_ops"}
            args.outcome_file.write_text(json.dumps(document))
        print(result_line(outcome, spec, traced))  # must stay the last line
        return 1 if outcome.failed else 0
    outcomes = [run_isolated(name, args.seed, args.seconds, traced, show=True) for name in chosen]
    return 1 if any(o.failed for o in outcomes) else 0


if __name__ == "__main__":
    raise SystemExit(main())
