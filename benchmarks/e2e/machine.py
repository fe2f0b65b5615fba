"""A host that changes speed: CPU pinning and reference-machine time.

The sandbox this benchmark runs in is a small VM on a shared host.  It
reports no steal time, yet the whole guest changes speed: a fixed pure-Python
loop took 8.7 ms, and twenty minutes later 15 ms (up to 37), on an otherwise
idle guest.  Ten back-to-back runs of ``read_hot`` measured in wall-clock time
spread (Q3 − Q1) by 3–5 % of their median in a quiet quarter of an hour and
by 18–23 % in a noisy one; a later set of ten can sit 70 % away from an
earlier one.  No regression bound survives that, so:

* **One CPU.**  The load generator pins itself to its first allowed CPU and
  the server child inherits that.  Nothing is lost: ten interleaved pairs of
  ``read_hot`` runs were *faster* that way than with a CPU each (9.6 against 11.2 ms
  wall-clock, 183 against 167 statements a second) and spread half as much
  (8.6 % / 6.0 % against 12.0 % / 17.4 %): the guest's two CPUs slow each
  other down, and an idle one takes its time to wake.
* **Reference-machine time.**  A fixed arithmetic loop (the *spin*) is timed
  a few times before, between and after the measured rounds, in the process
  that does the work (the server child, over a control line).  The run's
  ``slowdown`` is the median of all those samples (65 or more, spread over
  the whole measured window) ÷ ``REFERENCE_SPIN_MS``.  ``run.py`` divides
  every time the run reports by it and multiplies every rate, once, so a
  timing reads as it would on a machine that spins the loop in
  ``REFERENCE_SPIN_MS``.  The two gated timings are also reported in
  wall-clock time, with the factor (``raw.*``, ``machine.slowdown``).

One factor per run, not one per round: a single sample of a few spins is
itself ±15 % (bursts of tens of milliseconds), and dividing each 0.7 s round
by the samples around it *added* noise in a quiet quarter of an hour
(run-to-run spread of ``read_hot`` 2.6 % wall-clock, 6.7 % per round, 2.9 %
per run) where the per-run median is neutral, and both remove most of a
shift of the whole guest's speed, which is what breaks bounds (README,
*Noise*, has the measurements).

The spin tracks CPU speed only.  That is what the workloads are bound by
here: the one that syncs (``write_mixed``) spends 2 ms of a 100 ms commit in
``fsync`` (``wal.fsync_ms``); the rest is Python.
"""

from __future__ import annotations

import os
import statistics
import time

#: Defines the reference machine: it spins the loop below in this long.  A
#: unit definition, not a tuning knob — changing it rescales every timing.
REFERENCE_SPIN_MS = 10.0
_SPIN_ITERATIONS = 150_000


def spins(count: int = 5) -> list[float]:
    """One sample: milliseconds each of ``count`` spins of the loop takes right now."""
    samples = []
    for _ in range(count):
        begin = time.perf_counter()
        acc = 0
        for i in range(_SPIN_ITERATIONS):
            acc += i * i % 7
        samples.append(1e3 * (time.perf_counter() - begin))
    return samples


def slowdown(samples: list[float]) -> float:
    """Speed of the machine the samples were taken on: reference = 1, slower > 1."""
    return statistics.median(samples) / REFERENCE_SPIN_MS


def pin() -> None:
    """Pin this process, and every child it starts, to its first allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
