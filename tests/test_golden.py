"""Golden tables: every user-facing table byte-diffed against a committed file.

Each file under ``tests/golden/`` is the stdout of one command, recorded
with ``PYTHONPATH=src`` from the repository root:

- ``sweep.txt`` — ``python -m repro sweep --jobs 1``, which folds
  calibrated profiles in closed form; the live per-stage sweep
  ``sweep_table(run_adoption_sweep(windows_refresh_mixes(15)))`` that
  recorded it is diffed against it too
- ``sweep_no_intervention.txt`` — ``sweep_table(run_adoption_sweep(
  windows_refresh_mixes(8), TestbedConfig(poisoned_dns=False)))``
  (no trailing newline: the table string itself)
- ``matrix.txt`` — ``python -m repro matrix``
- ``matrix_no_intervention.txt`` — ``python -m repro matrix
  --no-intervention``
- ``scores.txt`` — ``python -m repro scores``
- ``scores_test_ipv6.txt`` — ``python -m repro scores --poison-target
  test-ipv6.com``
- ``fleet_100k.txt`` — ``python -m repro fleet --devices 100000 --jobs 1``
  (stdout only; the timing summary goes to stderr)
- ``probe_trace.txt`` — ``repro.lint._probe.deterministic_dump()``
  (the sanitizer's dump) with the frame hex cut from each packet-trace
  line: the trace summaries in capture order, then the sweep and matrix
  tables
- ``probe_dump.sha256`` — the sha256 of that whole dump, frame hex
  included, so every captured byte is pinned too

A refactor is accepted against these bytes, not against a retained
second implementation.  A change that is meant to move a table updates
its file in the same commit, with the reason in the commit message.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.adoption import run_adoption_sweep, sweep_table, windows_refresh_mixes
from repro.core.testbed import TestbedConfig
from repro.lint._probe import deterministic_dump

GOLDEN = Path(__file__).parent / "golden"


def _cli(*argv):
    def run(capsys):
        assert main(list(argv)) == 0
        return capsys.readouterr().out

    return run


def _sweep_no_intervention(capsys):
    mixes = windows_refresh_mixes(8)
    return sweep_table(run_adoption_sweep(mixes, TestbedConfig(poisoned_dns=False)))


@functools.lru_cache(maxsize=None)
def _probe_dump():
    return deterministic_dump()


def _probe_trace(capsys):
    return "".join(line.partition(" | ")[0] + "\n" for line in _probe_dump().splitlines())


def _probe_sha256(capsys):
    return hashlib.sha256(_probe_dump().encode("utf-8")).hexdigest() + "\n"


OUTPUTS = {
    "sweep.txt": _cli("sweep", "--jobs", "1"),
    "sweep_no_intervention.txt": _sweep_no_intervention,
    "matrix.txt": _cli("matrix"),
    "matrix_no_intervention.txt": _cli("matrix", "--no-intervention"),
    "scores.txt": _cli("scores"),
    "scores_test_ipv6.txt": _cli("scores", "--poison-target", "test-ipv6.com"),
    "fleet_100k.txt": _cli("fleet", "--devices", "100000", "--jobs", "1"),
    "probe_trace.txt": _probe_trace,
    "probe_dump.sha256": _probe_sha256,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_golden(name, capsys):
    assert OUTPUTS[name](capsys) == (GOLDEN / name).read_bytes().decode("utf-8")


def test_live_sweep_matches_the_cli_golden():
    """The live path the closed form is held to prints the same table."""
    table = sweep_table(run_adoption_sweep(windows_refresh_mixes(15)))
    assert table + "\n" == (GOLDEN / "sweep.txt").read_bytes().decode("utf-8")
