"""Pragma, scoping and unreadable-file behaviour of the analysis driver."""

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


def test_stale_rl701_pragma_reported_on_one_file(tmp_path):
    """Every rule judges each file alone, so a pragma that no longer
    suppresses an RL701 finding is stale on a run over that one file."""
    source = (
        "# repro-lint-module: repro.sim.fixture\n"
        "def on_timer(x):\n"
        "    try:\n"
        "        return x.step()\n"
        "    except ValueError:  # repro: allow[RL701]\n"
        "        return 0\n"
    )
    path = tmp_path / "fixture.py"
    path.write_text(source)
    assert [(f.line, f.code) for f in lint_paths([path])] == [(5, "RL001")]


def test_unreadable_files_are_rl000_findings(tmp_path):
    """A file that does not parse, holds a NUL byte or is not UTF-8 is
    one RL000 finding, and the run goes on to lint the other files."""
    (tmp_path / "a_syntax.py").write_text("def f(:\n")
    (tmp_path / "b_nul.py").write_bytes(b"x = 1\x00\n")
    (tmp_path / "c_bytes.py").write_bytes(b"x = 1\ny = '\xff'\n")
    (tmp_path / "d_clock.py").write_text(BANNED_CALL.format(pragma=""))
    found = [(Path(f.path).name, f.line, f.code) for f in lint_paths([tmp_path])]
    assert found == [
        ("a_syntax.py", 1, "RL000"),
        ("b_nul.py", 1, "RL000"),
        ("c_bytes.py", 2, "RL000"),
        ("d_clock.py", 5, "RL101"),
    ]


def test_out_of_scope_module_not_flagged(tmp_path):
    """Without a directive the tmp file is not in any repro package, so
    package-scoped rules must not fire."""
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    assert "RL101" not in _lint_source(tmp_path, source)


def test_module_name_derivation():
    assert module_name_for(Path("src/repro/sim/engine.py")) == "repro.sim.engine"
    assert module_name_for(Path("/x/y/src/repro/dns/__init__.py")) == "repro.dns"
    assert module_name_for(Path("tests/lint/test_rules.py")) == "test_rules"
