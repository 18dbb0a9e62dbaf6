"""Whole-program analysis units: call graph, resolution, the RL7xx
facts, the suppression audit of program rules, CLI.

Fixture modules are built in-memory through :func:`extract_summary` so
each test states its tree in a few lines; the CLI-facing behaviours
(``--format``, ``--max-seconds``) go through real subprocesses like CI
does.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint.core import lint_paths_run
from repro.lint.program import (
    build_program,
    CallGraph,
    extract_summary,
    func_id,
    ProgramIndex,
)
from tests.lint.cli_runner import REPO_ROOT, run_cli

CORPUS = Path(__file__).parent / "corpus"


def summarize(module: str, source: str, is_package: bool = False):
    return extract_summary(
        module, f"{module.replace('.', '/')}.py", ast.parse(source),
        is_package=is_package,
    )


# -- call graph ---------------------------------------------------------------


def test_call_graph_handles_cycles():
    index = ProgramIndex(
        {"m": summarize("m", "def a():\n    b()\n\n\ndef b():\n    a()\n")}
    )
    graph = CallGraph.build(index)
    reach = graph.reachable({func_id("m", "a")})
    assert func_id("m", "a") in reach
    assert func_id("m", "b") in reach


def test_dynamic_dispatch_over_approximates():
    """An untypeable receiver resolves to *every* same-named method."""
    summaries = {
        "m1": summarize("m1", "class Codec:\n    def handle(self):\n        return 1\n"),
        "m2": summarize("m2", "class Other:\n    def handle(self):\n        return 2\n"),
        "m3": summarize("m3", "def run(x):\n    x.handle()\n"),
    }
    graph = CallGraph.build(ProgramIndex(summaries))
    targets = graph.edges[func_id("m3", "run")]
    assert func_id("m1", "Codec.handle") in targets
    assert func_id("m2", "Other.handle") in targets


def test_package_reexport_resolution():
    """``from pkg import Worker`` follows the __init__ hop to pkg.impl."""
    summaries = {
        "pkg": summarize("pkg", "from .impl import Worker\n", is_package=True),
        "pkg.impl": summarize(
            "pkg.impl",
            "class Worker:\n    def __init__(self):\n        self.n = 0\n",
        ),
        "client": summarize(
            "client", "from pkg import Worker\n\n\ndef go():\n    Worker()\n"
        ),
    }
    index = ProgramIndex(summaries)
    entity = index.resolve(summaries["client"], "Worker")
    assert entity is not None
    assert (entity.kind, entity.module, entity.name) == ("class", "pkg.impl", "Worker")
    graph = CallGraph.build(index)
    assert func_id("pkg.impl", "Worker.__init__") in graph.edges[func_id("client", "go")]


def test_worker_entry_discovery_and_cone():
    source = (
        "from repro.parallel.executor import SweepExecutor\n"
        "\n"
        "def worker(spec):\n"
        "    return helper(spec)\n"
        "\n"
        "def helper(spec):\n"
        "    return spec\n"
        "\n"
        "def sweep(specs):\n"
        "    ex = SweepExecutor(jobs=2)\n"
        "    return ex.map(worker, specs)\n"
    )
    program = build_program({"repro.sweeps.m": summarize("repro.sweeps.m", source)})
    assert func_id("repro.sweeps.m", "worker") in program.worker_entries
    # Transitive: helper is in the worker cone without being an entry.
    assert func_id("repro.sweeps.m", "helper") in program.worker_reachable
    assert func_id("repro.sweeps.m", "helper") not in program.worker_entries


def test_exception_digest_classifies_handlers():
    fs = summarize(
        "m",
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception:\n"
        "        pass\n",
    ).functions["f"]
    assert fs.handlers == [
        {
            "lineno": 4,
            "col": 4,
            "stmt_line": 4,
            "what": "Exception",
            "handled": False,
        }
    ]
    handled = summarize(
        "m",
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception as exc:\n"
        "        return repr(exc)\n",
    ).functions["f"]
    assert handled.handlers[0]["handled"] is True


def test_finally_jump_local_loop_exempt(tmp_path):
    def rl702_lines(body: str) -> list:
        path = tmp_path / "fixture.py"
        path.write_text("# repro-lint-module: repro.sim.fixture\n" + body)
        return [f.line for f in lint_paths_run([path], {"RL702"}).findings]

    local_loop = rl702_lines(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        while q:\n"
        "            if not q.pop():\n"
        "                break\n"
    )
    assert local_loop == []
    returns = rl702_lines(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        return 0\n"
    )
    assert returns == [6]


def test_stale_allowlist_entry_reported(monkeypatch):
    from repro.lint import allowlist

    monkeypatch.setitem(allowlist.ALLOWLIST, "repro/lint/cli.py", ("RL301",))
    run = lint_paths_run([REPO_ROOT / "src" / "repro" / "lint" / "cli.py"])
    assert any(
        f.code == "RL001" and "allowlist" in f.message for f in run.findings
    )


def test_allowlisted_file_alone_lints_clean():
    """One file has no worker or dispatch roots, so its RL401 entry is
    not judged."""
    result = run_cli("src/repro/net/udp.py")
    assert result.returncode == 0, result.stdout


def test_stale_program_allowlist_entry_reported_on_src(monkeypatch):
    from repro.lint import allowlist

    monkeypatch.setitem(allowlist.ALLOWLIST, "repro/sim/engine.py", ("RL401",))
    findings = lint_paths_run([REPO_ROOT / "src"]).findings
    assert [(Path(f.path).name, f.code) for f in findings] == [("engine.py", "RL001")]
    assert "stale allowlist entry" in findings[0].message


# -- CLI surfaces -------------------------------------------------------------


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
