"""Runtime sanitizer: divergence detection logic, hung/crashed probe
reporting, plus an in-process repeatability check of the probe dump
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


def test_probe_dump_is_repeatable_in_process():
    dump = deterministic_dump(quick=True)
    assert dump == deterministic_dump(quick=True)
    assert "trace entries:" in dump
    # Raw frame hex rides along with every trace line, so the diff is
    # sensitive to single-bit codec divergence, not just summaries.
    assert any(" | " in line for line in dump.splitlines())


def test_hung_probe_reported_not_raised(monkeypatch, capsys):
    def hang(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert run_sanitizer(quick=True, timeout=0.05) == 1
    out = capsys.readouterr().out
    assert "sanitize: FAIL — probe [PYTHONHASHSEED=1] timed out after 0.05s" in out


def test_crashed_probe_reports_exit_code_and_stderr_tail(monkeypatch, capsys):
    stderr = "".join(f"noise {i}\n" for i in range(50)) + "ValueError: boom\n"

    def crash(command, **kwargs):
        return subprocess.CompletedProcess(command, 3, stdout=b"", stderr=stderr.encode())

    monkeypatch.setattr(subprocess, "run", crash)
    assert run_sanitizer(quick=True) == 1
    out = capsys.readouterr().out
    assert "sanitize: FAIL — probe [PYTHONHASHSEED=1] exited 3" in out
    assert "ValueError: boom" in out
    assert "noise 0\n" not in out  # only the tail is quoted


def _probes_print(monkeypatch, *outputs):
    dumps = iter(outputs)

    def probe(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, stdout=next(dumps), stderr=b"")

    monkeypatch.setattr(subprocess, "run", probe)


def test_identical_probes_pass(monkeypatch, capsys):
    _probes_print(monkeypatch, b"same\n", b"same\n")
    assert run_sanitizer(quick=True) == 0
    out = capsys.readouterr().out
    assert "sanitize: OK — 2 probes byte-identical across PYTHONHASHSEED {1, 31337}" in out


def test_diverging_probes_report_the_first_record(monkeypatch, capsys, tmp_path):
    _probes_print(monkeypatch, b"a\nb\n", b"a\nX\n")
    assert run_sanitizer(quick=True, artifact_dir=tmp_path) == 1
    out = capsys.readouterr().out
    assert "DIVERGENCE [PYTHONHASHSEED=1] vs [PYTHONHASHSEED=31337]" in out
    assert "first divergent record (line 2)" in out
    assert "+X\n" in (tmp_path / "sanitize-diff.txt").read_text(encoding="utf-8")
