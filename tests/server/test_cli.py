"""``python -m repro.server --shards N`` serves scattered statements.

The CLI attaches an audit log to the coordinator's local replica after the
shards are built; creating the audit table moves the replica's catalog
version, and unless that epoch is broadcast every scatter fails the
split-epoch check.  The test starts the real CLI as a subprocess.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import Client
from repro.server.__main__ import main
from repro.workload import WorldRecipe, build_world

SRC = Path(__file__).resolve().parents[2] / "src"
SQL = "select watch_id, beats from sensed_data where beats >= 60"


def test_sharded_cli_answers_a_scattered_select():
    command = [sys.executable, "-u", "-m", "repro.server", "--port", "0"]
    command += ["--shards", "3", "--patients", "8", "--samples", "3"]
    command += ["--grant", "demo=p6"]
    child = subprocess.Popen(
        command,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = child.stdout.readline()
        assert banner.startswith("repro.server listening on "), banner
        assert "3 shard(s)" in banner
        host, _, port = banner.split()[3].rpartition(":")
        with Client(host, int(port)) as client:
            client.hello("demo", "p6")
            answer = client.query(SQL)
    finally:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()
    recipe = WorldRecipe.for_patients(patients=8, samples=3, grants=(("demo", "p6"),))
    expected = build_world(recipe).monitor.execute(SQL, "p6")
    assert answer.route == "scatter_rows"
    assert sorted(answer.rows) == sorted(expected.rows)


def test_there_is_no_backend_flag(capsys):
    """One shard transport: ``--backend`` is a usage error, not a choice."""
    with pytest.raises(SystemExit) as exited:
        main(["--shards", "3", "--backend", "process"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err
