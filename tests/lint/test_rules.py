"""Per-rule fixture tests: every code has a minimal positive and
negative snippet in ``tests/lint/corpus`` (one pair per shipped rule).

Fixtures are linted through :func:`lint_paths` with ``flow=True`` so
the whole-program RL4xx rules, the dataflow RL6xx/RL7xx rules,
and the RL001 stale-suppression check all see the same pipeline the
CLI runs under ``--flow``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths

CORPUS = Path(__file__).parent / "corpus"
ALL_CODES = sorted(rule.code for rule in all_rules())


def codes_in(path: Path) -> set:
    return {finding.code for finding in lint_paths([path], flow=True)}


def test_corpus_covers_every_rule():
    """A bad/good fixture pair exists for every registered code."""
    for code in ALL_CODES:
        stem = code.lower()
        assert (CORPUS / f"bad_{stem}.py").is_file(), f"missing positive fixture for {code}"
        assert (CORPUS / f"good_{stem}.py").is_file(), f"missing negative fixture for {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_positive_fixture_triggers(code):
    """Each bad fixture fires its own code and no other, so a rule that
    starts firing on another rule's fixture fails here."""
    found = codes_in(CORPUS / f"bad_{code.lower()}.py")
    assert found == {code}, f"bad_{code.lower()}.py should trigger only {code} (got {found})"


@pytest.mark.parametrize("code", ALL_CODES)
def test_negative_fixture_clean(code):
    found = codes_in(CORPUS / f"good_{code.lower()}.py")
    assert not found, f"good_{code.lower()}.py should be clean (got {found})"


def test_rule_codes_follow_families():
    """Codes stay within the documented families: RL0xx meta, RL1xx
    determinism, RL2xx wire, RL3xx hygiene, RL4xx shard-safety, RL6xx
    determinism-taint, RL7xx exception-flow."""
    for code in ALL_CODES:
        assert code.startswith("RL") and len(code) == 5, code
        assert code[2] in "0123467", f"unknown family for {code}"


def test_findings_report_location_and_hint():
    findings = [
        f for f in lint_paths([CORPUS / "bad_rl101.py"]) if f.code == "RL101"
    ]
    assert findings, "expected an RL101 finding"
    finding = findings[0]
    assert finding.line > 0
    assert "time.time" in finding.message
    assert finding.hint  # fix-it hint is part of the rule contract
    assert str(CORPUS / "bad_rl101.py") in finding.render()
