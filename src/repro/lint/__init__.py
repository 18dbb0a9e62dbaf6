"""Static correctness tooling for the repro tree.

Two complementary gates ship here:

- :mod:`repro.lint.core` + :mod:`repro.lint.rules` — a stdlib-only AST
  analyzer (``python -m repro.lint``) enforcing the determinism,
  wire-contract and hot-path-hygiene invariants the reproduction's
  byte-identical guarantee rests on;
- :mod:`repro.lint.sanitize` — a runtime determinism sanitizer
  (``python -m repro sanitize``) that runs the same workload under two
  ``PYTHONHASHSEED`` values and byte-diffs the traces and tables.

See README "Correctness tooling" for rule codes and the
``# repro: allow[CODE]`` pragma.
"""

from __future__ import annotations

from repro.lint.core import (
    all_rules,
    Finding,
    lint_paths,
    lint_paths_run,
    LintContext,
    LintRun,
    module_name_for,
    register_rule,
    Rule,
)

__all__ = [
    "Finding",
    "LintContext",
    "LintRun",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_paths_run",
    "module_name_for",
    "register_rule",
]
