"""Runtime determinism sanitizer — ``python -m repro sanitize``.

The static rules in :mod:`repro.lint.rules` ban the *known* sources of
nondeterminism; this module checks the property itself.  It runs the
same workload (a traced scenario, an adoption sweep, the device matrix
— see :mod:`repro.lint._probe`) in two fresh interpreters under two
different ``PYTHONHASHSEED`` values: string-hash salting is the classic
way set/dict iteration order leaks into output.

Both dumps must be byte-for-byte identical.  On divergence the first
differing record is reported and a full unified diff is written to
``sanitize-diff.txt`` (uploaded as a CI artifact).  A probe that hangs
past ``--timeout`` or exits non-zero fails the run with a one-line
report instead of a traceback.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

__all__ = ["main", "run_sanitizer"]

#: Two arbitrary but fixed salts; any pair of distinct values works.
HASH_SEEDS = ("1", "31337")
DIFF_ARTIFACT = "sanitize-diff.txt"


#: Lines of a crashed probe's stderr quoted in the failure report.
STDERR_TAIL_LINES = 20


class ProbeRun(NamedTuple):
    label: str
    output: bytes


class ProbeFailed(Exception):
    """A probe interpreter hung past its timeout or exited non-zero."""


def _run_probe(hash_seed: str, quick: bool, timeout: float) -> ProbeRun:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src_dir = str(Path(__file__).resolve().parent.parent.parent)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [sys.executable, "-m", "repro.lint._probe"]
    if quick:
        command.append("--quick")
    label = f"PYTHONHASHSEED={hash_seed}"
    try:
        result = subprocess.run(
            command,
            env=env,
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ProbeFailed(f"probe [{label}] timed out after {timeout:g}s") from None
    if result.returncode != 0:
        tail = result.stderr.decode(errors="replace").splitlines()[-STDERR_TAIL_LINES:]
        raise ProbeFailed(
            f"probe [{label}] exited {result.returncode}"
            + "".join(f"\n    {line}" for line in tail)
        )
    return ProbeRun(label, result.stdout)


def _first_divergence(reference: bytes, other: bytes) -> Tuple[int, str, str]:
    """(1-based line, reference line, other line) of the first difference."""
    ref_lines = reference.decode(errors="replace").splitlines()
    other_lines = other.decode(errors="replace").splitlines()
    for index, (left, right) in enumerate(zip(ref_lines, other_lines), start=1):
        if left != right:
            return index, left, right
    longer = max(len(ref_lines), len(other_lines))
    shorter = min(len(ref_lines), len(other_lines))
    if longer != shorter:
        side = ref_lines if len(ref_lines) > shorter else other_lines
        return shorter + 1, "<end of dump>", side[shorter]
    return 0, "", ""


def run_sanitizer(
    quick: bool = False,
    timeout: float = 600.0,
    artifact_dir: Optional[Path] = None,
) -> int:
    """Run one probe per hash seed and byte-compare.  Returns exit code."""
    runs: List[ProbeRun] = []
    for hash_seed in HASH_SEEDS:
        print(f"sanitize: probing PYTHONHASHSEED={hash_seed} ...", flush=True)
        try:
            runs.append(_run_probe(hash_seed, quick, timeout))
        except ProbeFailed as exc:
            print(f"sanitize: FAIL — {exc}")
            return 1

    reference, other = runs
    if other.output == reference.output:
        print(f"sanitize: [{other.label}] identical to [{reference.label}] "
              f"({len(other.output)} bytes)")
        axes = f"PYTHONHASHSEED {{{', '.join(HASH_SEEDS)}}}"
        print(f"sanitize: OK — {len(runs)} probes byte-identical across {axes}")
        return 0
    line, ref_line, other_line = _first_divergence(reference.output, other.output)
    print(f"sanitize: DIVERGENCE [{reference.label}] vs [{other.label}]")
    print(f"  first divergent record (line {line}):")
    print(f"    {reference.label}: {ref_line}")
    print(f"    {other.label}: {other_line}")
    diff = difflib.unified_diff(
        reference.output.decode(errors="replace").splitlines(keepends=True),
        other.output.decode(errors="replace").splitlines(keepends=True),
        fromfile=reference.label,
        tofile=other.label,
    )
    artifact = (artifact_dir or Path(".")) / DIFF_ARTIFACT
    with open(artifact, "a", encoding="utf-8") as handle:
        handle.writelines(diff)
    print(f"  full diff appended to {artifact}")
    print("sanitize: FAIL — the probes diverged")
    return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="runtime determinism sanitizer (hash-salt byte-diff)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller scenario/fleet and no matrix (CI smoke)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="per-probe timeout in seconds",
    )
    args = parser.parse_args(argv)
    stale = Path(DIFF_ARTIFACT)
    if stale.exists():
        stale.unlink()
    return run_sanitizer(quick=args.quick, timeout=args.timeout)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
