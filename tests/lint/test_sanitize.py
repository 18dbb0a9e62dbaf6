"""Runtime sanitizer: divergence detection logic, hung/crashed probe
reporting, plus an in-process serial-vs-sharded byte-identity check
(the PYTHONHASHSEED axis needs a fresh interpreter and is covered by
the CI ``sanitize`` job).
"""

from __future__ import annotations

import subprocess

from repro.lint._probe import deterministic_dump
from repro.lint.sanitize import _first_divergence, run_sanitizer


def test_first_divergence_reports_line_and_records():
    line, left, right = _first_divergence(b"a\nb\nc\n", b"a\nX\nc\n")
    assert (line, left, right) == (2, "b", "X")


def test_first_divergence_length_mismatch():
    line, left, right = _first_divergence(b"a\nb\n", b"a\nb\nextra\n")
    assert line == 3
    assert left == "<end of dump>"
    assert right == "extra"


def test_first_divergence_identical():
    assert _first_divergence(b"same\n", b"same\n") == (0, "", "")


def test_probe_dump_serial_vs_sharded_identical():
    """The probe's own output must not depend on the worker count —
    the in-process half of the sanitizer's guarantee."""
    serial = deterministic_dump(jobs=1, quick=True)
    sharded = deterministic_dump(jobs=2, quick=True)
    assert serial == sharded
    assert "trace entries:" in serial
    # Raw frame hex rides along with every trace line, so the diff is
    # sensitive to single-bit codec divergence, not just summaries.
    assert " | " in serial.splitlines()[-2] or any(
        " | " in line for line in serial.splitlines()
    )


def test_probe_dump_is_repeatable_in_process():
    assert deterministic_dump(jobs=1, quick=True) == deterministic_dump(jobs=1, quick=True)


def test_hung_probe_reported_not_raised(monkeypatch, capsys):
    def hang(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert run_sanitizer(quick=True, jobs=2, timeout=0.05) == 1
    out = capsys.readouterr().out
    assert "sanitize: FAIL — probe [PYTHONHASHSEED=1 --jobs=1] timed out after 0.05s" in out


def test_crashed_probe_reports_exit_code_and_stderr_tail(monkeypatch, capsys):
    stderr = "".join(f"noise {i}\n" for i in range(50)) + "ValueError: boom\n"

    def crash(command, **kwargs):
        return subprocess.CompletedProcess(command, 3, stdout=b"", stderr=stderr.encode())

    monkeypatch.setattr(subprocess, "run", crash)
    assert run_sanitizer(quick=True, jobs=2) == 1
    out = capsys.readouterr().out
    assert "sanitize: FAIL — probe [PYTHONHASHSEED=1 --jobs=1] exited 3" in out
    assert "ValueError: boom" in out
    assert "noise 0\n" not in out  # only the tail is quoted
