"""The ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.core.rss import peak_rss_bytes
from repro.core.testbed import PI_POOL_SIZE


class TestCli:
    def test_experiments_passes(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out
        # The footer points at the tier-1 suite, which must exist.
        suite = out.splitlines()[-1].split("pytest ", 1)[1].split()[0]
        assert (Path(__file__).parents[1] / suite).is_dir()

    def test_matrix(self, capsys):
        assert main(["matrix"]) == 0
        out = capsys.readouterr().out
        assert "Nintendo Switch" in out
        assert "intervened=True" in out

    def test_matrix_no_intervention(self, capsys):
        assert main(["matrix", "--no-intervention"]) == 0
        assert "intervened=True" not in capsys.readouterr().out

    def test_matrix_rpz(self, capsys):
        assert main(["matrix", "--rpz"]) == 0
        assert "intervened=True" in capsys.readouterr().out

    def test_sweep(self, capsys):
        assert main(["sweep", "--fleet", "6"]) == 0
        out = capsys.readouterr().out
        assert "100% refreshed" in out

    def test_fleet_summary_leaves_out_an_unknown_peak_rss(self, capsys, monkeypatch):
        assert peak_rss_bytes() > 2**20
        monkeypatch.setitem(sys.modules, "resource", None)  # a platform without it
        assert peak_rss_bytes() is None
        assert main(["fleet", "--devices", "1000", "--jobs", "1"]) == 0
        summary = capsys.readouterr().err
        # The calibration (live clients) and the fold are timed apart.
        assert summary.startswith("fleet: 5000 devices / 5 stages / 4 profiles, calibration ")
        assert " ms, fold " in summary and "devices/sec" not in summary
        assert "peak RSS" not in summary

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--fleet", "2"], ["sweep", "--fleet", "-2"],
         ["fleet", "--devices", "1"], ["fleet", "--devices", "-3"]],
    )
    def test_fleets_smaller_than_the_fixed_devices_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: repro {argv[0]}") and "must be at least 3" in err

    def test_smallest_fleet_prints_one_table_on_both_paths(self, capsys):
        assert main(["sweep", "--fleet", "3"]) == 0
        sweep = capsys.readouterr().out
        assert main(["fleet", "--devices", "3"]) == 0
        assert capsys.readouterr().out == sweep
        assert "100% refreshed       3         1       2          1          67%" in sweep

    def test_sweep_accepts_a_fleet_whose_ipv4_demand_fills_the_pool(self, capsys):
        """52 devices: 49 Windows 10 boxes and the IoT box lease the whole
        pool at 0% refreshed, and the Macs take option 108 instead."""
        assert main(["sweep", "--fleet", "52"]) == 0
        out = capsys.readouterr().out
        assert f"0% refreshed        52        {PI_POOL_SIZE}       2" in out

    def test_sweep_rejects_a_fleet_that_would_drain_the_pool(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--fleet", "53"])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: repro sweep")
        assert "repro fleet" in err and f"{PI_POOL_SIZE}-address Pi DHCP pool" in err

    def test_sweep_jobs_matches_serial(self, capsys):
        assert main(["sweep", "--fleet", "6", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "--fleet", "6", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("command", ["matrix", "sanitize"])
    def test_jobs_is_a_usage_error_where_nothing_shards(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_scores(self, capsys):
        assert main(["scores"]) == 0
        out = capsys.readouterr().out
        assert "rfc8925" in out
        assert "dual-stack" in out

    def test_scores_fig5_target(self, capsys):
        assert main(["scores", "--poison-target", "test-ipv6.com"]) == 0
        out = capsys.readouterr().out
        # The erroneous stock 10/10 for the v6-disabled client (E5).
        device = "Windows 10 (IPv6 disabled)"
        (row,) = [line for line in out.splitlines() if line.startswith(device)]
        assert row[len(device):].split()[0] == "10/10"

    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version(self, capsys, flag):
        assert main([flag]) == 0
        assert capsys.readouterr().out == "repro 1.0.0\n"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_demo_runs_outside_the_checkout(self, capsys, tmp_path):
        # In process, the checkout root is on sys.path; a user's shell
        # elsewhere has only the package.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src
        result = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert main(["demo"]) == 0
        assert result.stdout == capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["-m", "repro.lint", "--list-rules"],
            ["-m", "repro", "lint", "--list-rules"],
            ["-m", "repro", "--version"],
            ["-m", "repro", "matrix"],
        ],
        ids=["repro.lint", "repro-lint", "repro-version", "repro-matrix"],
    )
    def test_a_closed_pipe_ends_quietly(self, args, tmp_path):
        """Output piped into a reader that has already exited (a pager,
        ``head``) ends the command with status 0 and nothing on stderr,
        with stdout block-buffered, as on any pipe, or unbuffered."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        for unbuffered in (False, True):
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                result = subprocess.run(
                    [sys.executable, *args],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    cwd=tmp_path,
                    env=env,
                    timeout=300,
                )
            finally:
                os.close(write_end)
            assert (result.returncode, result.stderr.decode()) == (0, ""), unbuffered
