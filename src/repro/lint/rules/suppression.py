"""RL001 — stale-suppression accounting.

Suppressions rot: the offending line gets refactored away, the pragma
stays, and six months later it silently swallows a brand-new violation
on the same line.  RL001 closes that loop — once every rule has run
on a file, the driver compares the pragmas that exist against the
pragmas that fired, and reports the difference.  It also flags pragmas
that name a rule code missing from the registry entirely (a renamed or
deleted rule): those can never fire again.

The detection itself lives in :func:`repro.lint.core.
_stale_suppressions` because it must run after every other rule has
reported which pragmas it used.  This class exists so the code shows
up in ``--list-rules``, participates in ``--select``, and is
documented like every other rule.
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
        # Emission happens in the driver after all rules have
        # reported which suppressions they used.
        return None
