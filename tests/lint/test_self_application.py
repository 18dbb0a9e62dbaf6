"""The linter applied to its own repository: the committed tree must be
clean, and the CLI must fail loudly on the deliberately-broken corpus.

The whole tree is analysed with every rule through both entry points:
in process with :func:`lint_paths`, and through the CLI.  The CLI's
report formats and wall-time gate run in subprocesses, as CI runs them.
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
    assert by_code["RL701"]["family"].startswith("RL7xx")


def test_cli_json_format():
    result = run_cli("--format", "json", str(CORPUS / "bad_rl101.py"))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert {"findings", "stats"} <= set(payload)
    codes = {f["code"] for f in payload["findings"]}
    assert "RL101" in codes
    assert payload["stats"]["files"] == 1
    for key in ("elapsed_s", "findings"):
        assert key in payload["stats"]


def test_cli_gha_format():
    result = run_cli("--format", "gha", str(CORPUS / "bad_rl101.py"), str(CORPUS / "bad_rl001.py"))
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert any(
        line.startswith("::error file=") and "title=RL101" in line for line in lines
    )
    # Stale suppressions annotate as warnings, not errors.
    assert any(
        line.startswith("::warning file=") and "title=RL001" in line for line in lines
    )


def test_cli_max_seconds_gate(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    result = run_cli("--max-seconds", "0", str(clean))
    assert result.returncode == 3
    result = run_cli("--max-seconds", "600", str(clean))
    assert result.returncode == 0


def test_cli_missing_path_is_usage_error():
    result = run_cli("does/not/exist.py")
    assert result.returncode == 2


def test_repro_lint_subcommand_forwards():
    result = run_cli("lint", "--list-rules", module="repro")
    assert result.returncode == 0
    assert "RL101" in result.stdout
