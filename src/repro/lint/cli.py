"""``python -m repro.lint`` — the static analysis entry point.

Exit codes: 0 clean, 1 findings, 2 usage error (missing path),
3 clean but over the ``--max-seconds`` wall-time gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.lint.core import all_rules, Finding, lint_paths_run, STALE_SUPPRESSION_CODE

__all__ = ["main"]


def _default_paths() -> List[Path]:
    """``src`` when run from a checkout, else the installed package dir."""
    src = Path("src")
    if src.is_dir() and (src / "repro").is_dir():
        return [src]
    return [Path(__file__).resolve().parent.parent]


def _render_text(findings: List[Finding]) -> None:
    for finding in findings:
        print(finding.render())


def _render_json(findings: List[Finding], stats: dict) -> None:
    print(
        json.dumps(
            {"findings": [f.to_json() for f in findings], "stats": stats},
            indent=2,
            sort_keys=True,
        )
    )


def _render_gha(findings: List[Finding]) -> None:
    """GitHub Actions workflow commands — one annotation per finding."""
    for f in findings:
        level = "warning" if f.code == STALE_SUPPRESSION_CODE else "error"
        message = f.message if not f.hint else f"{f.message} (fix: {f.hint})"
        # Workflow-command payloads are single-line; escape per the spec.
        message = (
            message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        print(
            f"::{level} file={f.path},line={f.line},col={f.col},"
            f"title={f.code}::{message}"
        )


#: Human titles per rule family (code prefix "RLn").
_FAMILIES = {
    "RL0": "RL0xx — meta (suppression hygiene)",
    "RL1": "RL1xx — determinism (syntactic)",
    "RL2": "RL2xx — wire contracts",
    "RL3": "RL3xx — hot-path hygiene",
    "RL7": "RL7xx — exception flow",
}


def _list_rules(fmt: str) -> int:
    """``--list-rules``: grouped text, or a diffable JSON inventory."""
    rules = all_rules()
    if fmt == "json":
        print(
            json.dumps(
                {
                    "rules": [
                        {
                            "code": r.code,
                            "name": r.name,
                            "summary": r.summary,
                            "family": _FAMILIES.get(r.code[:3], r.code[:3] + "xx"),
                            "scope": list(r.scope),
                        }
                        for r in rules
                    ]
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    previous_family = None
    for rule in rules:
        family = _FAMILIES.get(rule.code[:3], rule.code[:3] + "xx")
        if family != previous_family:
            if previous_family is not None:
                print()
            print(family)
            previous_family = family
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        print(f"  {rule.code}  {rule.name:28s} [{scope}]")
        print(f"         {rule.summary}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="determinism & wire-contract static analysis for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the src tree)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "gha"),
        default="text",
        help="report format (gha = GitHub Actions annotations)",
    )
    parser.add_argument(
        "--max-seconds",
        type=float,
        metavar="T",
        help="exit 3 if the run takes longer than T seconds (CI perf gate)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules(args.format)

    select = None
    if args.select:
        select = {code.strip() for code in args.select.split(",") if code.strip()}

    paths = args.paths or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    run = lint_paths_run(paths, select=select)
    elapsed = time.perf_counter() - started
    findings = run.findings

    stats = {
        "files": run.files,
        "elapsed_s": round(elapsed, 3),
        "findings": len(findings),
    }

    if args.format == "json":
        _render_json(findings, stats)
    elif args.format == "gha":
        _render_gha(findings)
    else:
        _render_text(findings)

    timing = f"{elapsed:.2f}s, {run.files} files"

    if findings:
        codes = sorted({f.code for f in findings})
        if args.format == "text":
            print(f"\nrepro.lint: {len(findings)} finding(s) [{', '.join(codes)}]")
            print(f"repro.lint: {timing}")
        return 1
    if args.format == "text":
        print(f"repro.lint: clean ({timing})")
    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(
            f"repro.lint: wall time {elapsed:.2f}s exceeded gate "
            f"{args.max_seconds:.2f}s",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
