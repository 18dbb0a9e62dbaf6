"""RL001 — stale-suppression accounting.

Suppressions rot: the offending line gets refactored away, the pragma
stays, and six months later it silently swallows a brand-new violation
on the same line.  RL001 closes that loop — after every full run the
driver compares the pragmas that exist against the pragmas that fired,
and reports the difference.  It also flags pragmas that name a rule
code missing from the registry entirely (a renamed or deleted rule):
those can never fire again and are reported even on partial
``--select`` runs.

The detection itself lives in :func:`repro.lint.core.
_stale_suppression_findings` because it needs the whole run's usage
ledger (a program rule reports its pragma use only after every file
is read).  This class exists so the code shows up in ``--list-rules``,
participates in ``--select``, and is documented like every other rule.
"""

from __future__ import annotations

from repro.lint.core import LintContext, register_rule, Rule

__all__ = ["StaleSuppression"]


@register_rule
class StaleSuppression(Rule):
    code = "RL001"
    name = "stale-suppression"
    summary = "pragma that no longer suppresses any finding"

    def check(self, ctx: LintContext) -> None:
        # Emission happens in the driver after all rules (file and
        # program alike) have reported which suppressions they used.
        return None
