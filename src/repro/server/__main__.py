"""Command-line entry point: ``python -m repro.server --port 7878``.

Serves the *patients* running example over the wire protocol: builds the
scenario, installs scattered policies at the requested selectivity, grants
the demo users their purposes, attaches an audit log and listens until
interrupted.  Connect with :class:`repro.server.Client`::

    from repro.server import Client
    with Client("127.0.0.1", 7878) as client:
        client.hello("demo", "p6")
        print(client.query("select avg(beats) from sensed_data").rows)
"""

from __future__ import annotations

import argparse

from ..core import AuditLog, default_purpose_set
from ..workload import apply_experiment_policies, build_patients_scenario
from .async_server import AsyncQueryServer
from .server import QueryServer


def _parse_grants(raw: list[str]) -> list[tuple[str, str]]:
    """``user=p1,p6`` option values → (user, purpose) pairs."""
    grants: list[tuple[str, str]] = []
    for entry in raw:
        user, _, purposes = entry.partition("=")
        if not user or not purposes:
            raise SystemExit(f"--grant expects user=p1,p2,... got {entry!r}")
        for purpose in purposes.split(","):
            grants.append((user, purpose.strip()))
    return grants


def main(argv: list[str] | None = None) -> int:
    """Build the demo scenario and serve it until interrupted."""
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve the patients scenario over the query protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7878)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--max-pending", type=int, default=32,
        help="admission queue bound; overload answers server_busy",
    )
    parser.add_argument("--patients", type=int, default=50)
    parser.add_argument("--samples", type=int, default=20)
    parser.add_argument(
        "--selectivity", type=float, default=0.4,
        help="scattered-policy selectivity installed at startup",
    )
    parser.add_argument(
        "--grant", action="append", default=[],
        metavar="USER=P1,P2",
        help="purpose grants (default: user 'demo' gets every purpose)",
    )
    parser.add_argument(
        "--async", dest="use_async", action="store_true",
        help="serve with the asyncio event-loop front end (implies sharding)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard-worker count for the async server (implies --async)",
    )
    args = parser.parse_args(argv)
    use_async = args.use_async or args.shards > 1

    grants = _parse_grants(args.grant) or [
        ("demo", purpose.id) for purpose in default_purpose_set().ordered()
    ]
    if use_async:
        from ..shard import ShardCoordinator, WorldRecipe

        recipe = WorldRecipe.for_patients(
            patients=args.patients,
            samples=args.samples,
            selectivity=args.selectivity,
            grants=tuple(grants),
        )
        coordinator = ShardCoordinator(recipe, max(1, args.shards))
        coordinator.monitor.attach_audit(AuditLog(coordinator.database))
        server: "AsyncQueryServer | QueryServer" = AsyncQueryServer(
            coordinator,
            host=args.host,
            port=args.port,
            max_concurrent=args.workers,
            max_pending=args.max_pending,
        )
        flavor = f"asyncio, {coordinator.shard_count} shard(s)"
    else:
        scenario = build_patients_scenario(
            patients=args.patients, samples_per_patient=args.samples
        )
        apply_experiment_policies(scenario, args.selectivity, seed=411595)
        for user, purpose in grants:
            scenario.admin.grant_purpose(user, purpose)
        scenario.monitor.attach_audit(AuditLog(scenario.database))
        server = QueryServer(
            scenario.monitor,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
        )
        flavor = f"threaded, {args.workers} workers"

    with server:
        host, port = server.address
        users = sorted({user for user, _ in grants})
        print(f"repro.server listening on {host}:{port} ({flavor})")
        print(
            f"scenario: {args.patients} patients x {args.samples} samples, "
            f"selectivity {args.selectivity:g}; users: {', '.join(users)}"
        )
        try:
            import threading

            threading.Event().wait()  # serve until interrupted
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
