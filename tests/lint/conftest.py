"""Shared fixtures for the linter tests."""

from __future__ import annotations

from pathlib import Path
from typing import List, NamedTuple

import pytest

from repro.lint import Finding, lint_paths
from repro.lint.program import LintCache

SRC = Path(__file__).parents[2] / "src"


class SrcLint(NamedTuple):
    findings: List[Finding]
    cache_path: Path


@pytest.fixture(scope="session")
def src_lint(tmp_path_factory) -> SrcLint:
    """One cold in-process analysis of ``src``, flow rules included.

    Its cache is what the CLI tests read back, so the suite analyses the
    whole tree once rather than once per entry point.  A warm run over
    an unchanged tree never rewrites the cache, so the tests sharing it
    stay independent of their order.
    """
    cache_path = tmp_path_factory.mktemp("src-lint") / "cache.json"
    findings = lint_paths([SRC], flow=True, cache=LintCache(cache_path))
    return SrcLint(findings, cache_path)
