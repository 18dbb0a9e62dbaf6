"""Pragma and scoping behaviour of the analysis driver."""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, module_name_for


def _lint_source(tmp_path: Path, source: str, name: str = "fixture.py") -> set:
    path = tmp_path / name
    path.write_text(source)
    return {finding.code for finding in lint_paths([path])}


BANNED_CALL = (
    "# repro-lint-module: repro.sim.fixture\n"
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time(){pragma}\n"
)


def test_inline_pragma_suppresses(tmp_path):
    assert "RL101" in _lint_source(tmp_path, BANNED_CALL.format(pragma=""))
    assert "RL101" not in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL101]")
    )


def test_pragma_is_code_specific(tmp_path):
    """A pragma for a different code does not suppress the finding."""
    assert "RL101" in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL301]")
    )


def test_pragma_comma_list(tmp_path):
    assert "RL101" not in _lint_source(
        tmp_path, BANNED_CALL.format(pragma="  # repro: allow[RL301, RL101]")
    )


def test_pragma_on_statement_first_line_covers_multiline(tmp_path):
    source = (
        "# repro-lint-module: repro.sim.fixture\n"
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return (  # repro: allow[RL101]\n"
        "        time.time()\n"
        "    )\n"
    )
    assert "RL101" not in _lint_source(tmp_path, source)


def test_out_of_scope_module_not_flagged(tmp_path):
    """Without a directive the tmp file is not in any repro package, so
    package-scoped rules must not fire."""
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    assert "RL101" not in _lint_source(tmp_path, source)


def test_module_name_derivation():
    assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"
    assert module_name_for(Path("/x/y/src/repro/dns/__init__.py")) == "repro.dns"
    assert module_name_for(Path("tests/lint/test_rules.py")) == "test_rules"
