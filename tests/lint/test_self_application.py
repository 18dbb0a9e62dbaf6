"""The linter applied to its own repository: the committed tree must be
clean (whole-program rules included), and the CLI must fail loudly on
the deliberately-broken corpus.

The whole tree is analysed with every rule through both entry points:
in process with :func:`lint_paths`, and through the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint import all_rules, lint_paths
from tests.lint.cli_runner import REPO_ROOT, run_cli

CORPUS = Path(__file__).parent / "corpus"


def test_src_tree_lints_clean_via_cli():
    result = run_cli(str(REPO_ROOT / "src"), "--format", "json")
    assert result.returncode == 0, f"tree not clean:\n{result.stdout}"
    assert json.loads(result.stdout)["findings"] == []


def test_src_tree_lints_clean_in_process():
    assert lint_paths([REPO_ROOT / "src"]) == []


def test_broken_corpus_fails_with_every_code():
    bad_files = sorted(str(p) for p in CORPUS.glob("bad_*.py"))
    result = run_cli(*bad_files)
    assert result.returncode == 1
    for rule in all_rules():
        assert rule.code in result.stdout, f"{rule.code} missing from CLI output"


def test_cli_select_filters_codes():
    result = run_cli("--select", "RL301", str(CORPUS / "bad_rl301.py"))
    assert result.returncode == 1
    assert "RL301" in result.stdout
    result = run_cli("--select", "RL101", str(CORPUS / "bad_rl301.py"))
    assert result.returncode == 0


def test_cli_select_program_rule_implies_program():
    """Selecting RL701 builds the program it judges."""
    result = run_cli("--select", "RL701", str(CORPUS / "bad_rl701.py"))
    assert result.returncode == 1
    assert "RL701" in result.stdout


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.code in result.stdout
    # Grouped by family, in order.
    for header in ("RL1xx", "RL3xx", "RL7xx"):
        assert header in result.stdout
    assert result.stdout.index("RL3xx") < result.stdout.index("RL7xx")


def test_cli_list_rules_json():
    result = run_cli("--list-rules", "--format", "json")
    assert result.returncode == 0
    inventory = json.loads(result.stdout)
    codes = [entry["code"] for entry in inventory["rules"]]
    assert codes == sorted(rule.code for rule in all_rules())
    by_code = {entry["code"]: entry for entry in inventory["rules"]}
    assert by_code["RL701"]["kind"] == "program"
    assert by_code["RL101"]["kind"] == "file"
    assert by_code["RL702"]["kind"] == "file"
    assert by_code["RL701"]["family"].startswith("RL7xx")


def test_cli_missing_path_is_usage_error():
    result = run_cli("does/not/exist.py")
    assert result.returncode == 2


def test_repro_lint_subcommand_forwards():
    result = run_cli("lint", "--list-rules", module="repro")
    assert result.returncode == 0
    assert "RL101" in result.stdout
