"""Whole-program analysis units: call graph, resolution, the RL7xx
facts, the pragma audit of program rules, CLI.

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
from tests.lint.cli_runner import run_cli

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


ENGINE = (
    "class EventEngine:\n"
    "    def schedule(self, callback):\n"
    "        callback()\n"
    "\n"
    "    def _pop(self):\n"
    "        return None\n"
)


def test_dispatch_roots_and_cone():
    """The public EventEngine methods are the roots; a callback handed to
    the scheduler, and what it calls, are in the cone."""
    callbacks = (
        "def on_timer():\n"
        "    helper()\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def unscheduled():\n"
        "    return 2\n"
        "\n"
        "def arm(engine):\n"
        "    engine.schedule(on_timer)\n"
    )
    program = build_program(
        {
            "repro.sim.engine": summarize("repro.sim.engine", ENGINE),
            "repro.sim.timers": summarize("repro.sim.timers", callbacks),
        }
    )
    assert program.dispatch_roots == {func_id("repro.sim.engine", "EventEngine.schedule")}
    assert func_id("repro.sim.timers", "on_timer") in program.dispatch_reachable
    assert func_id("repro.sim.timers", "helper") in program.dispatch_reachable
    assert func_id("repro.sim.timers", "unscheduled") not in program.dispatch_reachable


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


def test_program_pragmas_audited_only_with_the_dispatch_roots(tmp_path):
    """A stale RL701 pragma is reported on a run that saw the engine,
    and left unjudged on a run over the callback module alone."""
    engine = tmp_path / "engine.py"
    engine.write_text("# repro-lint-module: repro.sim.engine\n" + ENGINE)
    timers = tmp_path / "timers.py"
    timers.write_text(
        "# repro-lint-module: repro.sim.timers\n"
        "def on_timer():\n"
        "    try:\n"
        "        return 1\n"
        "    except ValueError:  # repro: allow[RL701]\n"
        "        return 0\n"
        "\n"
        "def arm(engine):\n"
        "    engine.schedule(on_timer)\n"
    )
    whole = lint_paths_run([engine, timers]).findings
    assert [(Path(f.path).name, f.line, f.code) for f in whole] == [("timers.py", 5, "RL001")]
    assert lint_paths_run([timers]).findings == []


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
