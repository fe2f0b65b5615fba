"""CLI tests: ``python -m repro.bench`` argument handling and output."""

import pytest

from repro.bench.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestCli:
    def test_fig6_prints_table(self, capsys):
        out = run_cli(
            capsys, "fig6", "--patients", "12", "--samples", "4",
            "--no-random", "--selectivities", "0", "0.5",
        )
        assert "Figure 6" in out
        assert "q1" in out and "q8" in out
        assert "s=0.5" in out

    def test_fig7_prints_table(self, capsys):
        out = run_cli(
            capsys, "fig7", "--patients", "12", "--samples", "4",
            "--no-random", "--selectivities", "0",
        )
        assert "Figure 7" in out
        assert "orig" in out

    def test_fig8_prints_table(self, capsys):
        out = run_cli(
            capsys, "fig8", "--patients", "10", "--samples", "4", "--no-random"
        )
        assert "Figure 8" in out
        assert "Scn 1" in out

    def test_cub_prints_bound_table(self, capsys):
        out = run_cli(
            capsys, "cub", "--patients", "10", "--samples", "4", "--no-random"
        )
        assert "cub" in out
        assert "measured/cub" in out

    def test_all_prints_everything(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = run_cli(
            capsys, "all", "--patients", "10", "--samples", "3",
            "--no-random", "--selectivities", "0",
        )
        for marker in ("Figure 6", "Figure 7", "Figure 8", "Section 5.6"):
            assert marker in out
        # The CLI only prints: nothing lands in the working directory.
        assert list(tmp_path.iterdir()) == []

    def test_random_queries_included_by_default(self, capsys):
        out = run_cli(
            capsys, "fig6", "--patients", "10", "--samples", "3",
            "--selectivities", "0",
        )
        assert "r20" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
