"""The server child: the pinned world behind a real TCP front end.

``run.py`` starts this as a subprocess, waits for the ``READY <port> <json>``
line (the json carries the ``setup.*`` step timings) and then talks to it
only through :class:`repro.server.Client` — plus three control lines on stdin:

``bump <watch> <step>``  recompile one patient's policy under
                         ``server.exclusive()``; answers ``OK``
``cpu``                  answers ``CPU <process seconds so far>``
``spins``                answers ``SPINS <ms> <ms> …`` (``machine.spins()``), timed
                         here, on the CPU that does the serving

The child is killed, never ``stop()``ped (``QueryServer.stop()`` burns 5 s in
its accept loop on the seed), and exits by itself when stdin reaches EOF so it
can not outlive a load generator that died.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import machine  # noqa: E402  (sibling modules; sys.path[0] is this directory)
import world  # noqa: E402
from repro.core import AuditLog  # noqa: E402
from repro.server import AsyncQueryServer, QueryServer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--flavor", choices=("threaded", "sharded"), required=True)
    parser.add_argument("--wal-dir", default="")
    args = parser.parse_args()

    timings: dict = {}
    if args.flavor == "threaded":
        scenario = world.build_single_world(timings)
        if args.wal_dir:
            from repro.engine.wal import DurabilityManager

            # sync=True on the serving side *and* on recovery: the flush
            # policy is the same on both commits by construction.
            durability = DurabilityManager(scenario.database, args.wal_dir, sync=True)
            durability.checkpoint()  # base image the WAL suffix replays onto
        begin = time.perf_counter()
        server = QueryServer(scenario.monitor, workers=2, max_pending=32).start()
        admin = scenario.admin
    else:
        from repro.shard import ShardCoordinator

        begin = time.perf_counter()
        coordinator = ShardCoordinator(world.RECIPE, 3, backend="inline")
        # The coordinator builds 1 + 3 worlds (data and policies together).
        timings["world_build_s"] = time.perf_counter() - begin
        timings["policy_install_s"] = 0.0
        timings["index_build_s"] = world.create_index(coordinator.database)
        coordinator.monitor.attach_audit(AuditLog(coordinator.database))
        # Both DDLs above moved the local replica's catalog version, which is
        # the policy epoch scatters are checked against: broadcast it, or
        # every scatter fails with a split-epoch error.
        asyncio.run(coordinator.bump_epoch())
        begin = time.perf_counter()
        server = AsyncQueryServer(coordinator, max_concurrent=2, max_pending=32).start()
        admin = None
    timings["server_ready_s"] = time.perf_counter() - begin
    print(f"READY {server.address[1]} {json.dumps(timings)}", flush=True)

    for line in sys.stdin:
        words = line.split()
        if not words:
            continue
        if words[0] == "bump" and admin is not None:
            with server.exclusive():
                world.bump_policy(admin, words[1], int(words[2]))
            print("OK", flush=True)
        elif words[0] == "cpu":
            print(f"CPU {time.process_time()!r}", flush=True)
        elif words[0] == "spins":
            print("SPINS", *map(repr, machine.spins()), flush=True)
        else:
            print(f"ERR unknown control line {line.strip()!r}", flush=True)
    os._exit(0)  # stdin EOF: the parent is gone; daemon threads die with us


if __name__ == "__main__":
    raise SystemExit(main())
