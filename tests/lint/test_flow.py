"""Unit tests for the dataflow engine: CFG shape, the intraprocedural
taint solver (loops, try/finally, short-circuit joins), interprocedural
summary composition, and the headline guarantee — the interprocedural
fixture is provably invisible to RL101-105.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.interp import build_flow_program
from repro.lint.flow.model import FunctionFlow
from repro.lint.flow.solver import extract_flow, solve_function
from repro.lint.program.analyzer import build_program
from repro.lint.program.summary import extract_summary

CORPUS = Path(__file__).parent / "corpus"


def _fn(source: str):
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in source")


def _solve(source: str) -> FunctionFlow:
    return solve_function(_fn(source), "f")


def _flow_program(sources: dict):
    """Build a composed FlowProgram from {module: source} dicts."""
    summaries, flows = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        summaries[module] = extract_summary(
            module, f"{module}.py", tree, is_package=False,
            pragmas={}, statement_starts={},
        )
        flows[module] = extract_flow(module, tree)
    return build_flow_program(build_program(summaries), flows)


# -- CFG construction --------------------------------------------------------


def test_cfg_if_else_joins():
    cfg = build_cfg(ast.parse("a = 1\nif a:\n    b = 1\nelse:\n    b = 2\nc = b\n").body)
    # The entry block branches into both arms; both arms reach the join.
    (join,) = [
        bid
        for bid, block in cfg.blocks.items()
        if [ast.unparse(item) for item in block.items] == ["c = b"]
    ]
    arms = cfg.blocks[cfg.entry].succ
    assert len(arms) == 2
    for arm in arms:
        assert join in cfg.blocks[arm].succ
    assert cfg.preds[join] == arms


def test_cfg_while_has_back_edge():
    cfg = build_cfg(ast.parse("i = 0\nwhile i < 3:\n    i = i + 1\n").body)
    back = any(
        succ <= bid for bid, block in cfg.blocks.items() for succ in block.succ
    )
    assert back, "loop body must edge back to the head"


def test_cfg_try_body_edges_into_handler():
    src = "try:\n    x = f()\nexcept ValueError:\n    x = 0\ny = x\n"
    cfg = build_cfg(ast.parse(src).body)
    handler_blocks = [
        bid
        for bid, block in cfg.blocks.items()
        if any(isinstance(i, ast.ExceptHandler) for i in block.items)
    ]
    assert handler_blocks
    (handler,) = handler_blocks
    assert len(cfg.preds[handler]) >= 1


def test_cfg_return_ends_path():
    cfg = build_cfg(ast.parse("return 1\nx = 2\n").body)
    # The statement after return is unreachable: no block contains it.
    all_items = [i for b in cfg.blocks.values() for i in b.items]
    assert not any(isinstance(i, ast.Assign) for i in all_items)


# -- intraprocedural solver --------------------------------------------------


def test_taint_flows_through_loop():
    flow = _solve(
        "def f(n):\n"
        "    total = 0\n"
        "    for _ in range(n):\n"
        "        total = total + id(n)\n"
        "    return total\n"
    )
    assert ("kind", "id") in flow.returns


def test_taint_joins_across_branches():
    flow = _solve(
        "def f(flag, x):\n"
        "    if flag:\n"
        "        v = id(x)\n"
        "    else:\n"
        "        v = 0\n"
        "    return v\n"
    )
    assert ("kind", "id") in flow.returns


def test_try_finally_join_keeps_taint():
    flow = _solve(
        "def f(x):\n"
        "    v = 0\n"
        "    try:\n"
        "        v = id(x)\n"
        "    finally:\n"
        "        w = v\n"
        "    return w\n"
    )
    assert ("kind", "id") in flow.returns


def test_handler_sees_pre_raise_state():
    # The write happens before the call that may raise — the handler
    # path must include it (conservative per-item handler edges).
    flow = _solve(
        "def f(x):\n"
        "    v = id(x)\n"
        "    try:\n"
        "        v = g()\n"
        "    except ValueError:\n"
        "        return v\n"
        "    return 0\n"
    )
    assert ("kind", "id") in flow.returns


def test_short_circuit_walrus_weak_update():
    # `v` is only bound when the left operand is falsy: the post-state
    # must join bound and unbound — the pre-existing clean binding
    # cannot be strongly overwritten.
    flow = _solve(
        "def f(a, x):\n"
        "    v = x\n"
        "    ok = a or (v := id(a))\n"
        "    return v\n"
    )
    assert ("kind", "id") in flow.returns
    assert ("param", "x") in flow.returns  # the skipped-binding path


def test_strong_update_kills_taint():
    flow = _solve(
        "def f(x):\n"
        "    v = id(x)\n"
        "    v = 0\n"
        "    return v\n"
    )
    assert ("kind", "id") not in flow.returns


def test_sorted_scrubs_set_order():
    flow = _solve(
        "def f(s: set):\n"
        "    out = [v for v in s]\n"
        "    return out\n"
    )
    assert ("kind", "setorder") in flow.returns
    # The sanitize marker lives on the call site; composition applies it.
    fp = _flow_program({"m": "def f(s: set):\n    return sorted(s)\n"})
    assert fp.ret_kinds["m::f"] == set()


def test_derive_seed_is_hard_sanitizer():
    flow = _solve(
        "def f(base, idx):\n"
        "    return derive_seed(id(base), idx)\n"
    )
    assert flow.returns == []


def test_sink_detection_trace_and_wire():
    flow = _solve(
        "def f(trace, pkt):\n"
        "    trace.record('n', 'p', 'tx', id(pkt))\n"
        "    return struct.pack('!H', id(pkt))\n"
    )
    kinds = {s["kind"] for s in flow.sinks}
    assert kinds == {"trace", "wire"}


def test_exception_digest_classifies_handlers():
    flow = _solve(
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception:\n"
        "        pass\n"
    )
    assert flow.handlers == [
        {
            "lineno": 4,
            "col": 4,
            "stmt_line": 4,
            "what": "Exception",
            "handled": False,
        }
    ]
    handled = _solve(
        "def f(x):\n"
        "    try:\n"
        "        return g(x)\n"
        "    except Exception as exc:\n"
        "        return repr(exc)\n"
    )
    assert handled.handlers[0]["handled"] is True


def test_finally_jump_local_loop_exempt():
    flow = _solve(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        while q:\n"
        "            if not q.pop():\n"
        "                break\n"
    )
    assert flow.finally_jumps == []
    bad = _solve(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        return 0\n"
    )
    assert [j["kind"] for j in bad.finally_jumps] == ["return"]


# -- interprocedural composition ---------------------------------------------


def test_two_hop_taint_composes():
    fp = _flow_program(
        {
            "m": (
                "def source(x):\n"
                "    return id(x)\n"
                "def mid(x):\n"
                "    return source(x) & 0xFF\n"
                "def emit(trace, x):\n"
                "    trace.record(mid(x))\n"
            )
        }
    )
    assert fp.ret_kinds["m::source"] == {"id"}
    assert fp.ret_kinds["m::mid"] == {"id"}
    assert [i for i in fp.incidents if i["sink"] == "trace"]


def test_param_sink_reports_at_call_site():
    fp = _flow_program(
        {
            "m": (
                "def log_tag(trace, tag):\n"
                "    trace.record(tag)\n"
                "def caller(trace, x):\n"
                "    log_tag(trace, id(x))\n"
            )
        }
    )
    incidents = [i for i in fp.incidents if i["qualname"] == "caller"]
    assert incidents and incidents[0]["via"].startswith("argument 'tag'")


def test_cross_module_composition():
    fp = _flow_program(
        {
            "pkg.helpers": "def token(x):\n    return id(x)\n",
            "pkg.emit": (
                "from pkg.helpers import token\n"
                "def emit(trace, x):\n"
                "    trace.record(token(x))\n"
            ),
        }
    )
    assert [i for i in fp.incidents if i["module"] == "pkg.emit"]


def test_recursion_terminates_and_converges():
    fp = _flow_program(
        {
            "m": (
                "def ping(n, x):\n"
                "    if n <= 0:\n"
                "        return id(x)\n"
                "    return pong(n - 1, x)\n"
                "def pong(n, x):\n"
                "    return ping(n, x)\n"
            )
        }
    )
    assert fp.ret_kinds["m::ping"] == {"id"}
    assert fp.ret_kinds["m::pong"] == {"id"}


def test_self_method_call_resolves():
    fp = _flow_program(
        {
            "m": (
                "class C:\n"
                "    def token(self, x):\n"
                "        return id(x)\n"
                "    def emit(self, trace, x):\n"
                "        trace.record(self.token(x))\n"
            )
        }
    )
    assert [i for i in fp.incidents if i["qualname"] == "C.emit"]


# -- the RL101-105 blindness guarantee ---------------------------------------


def test_interprocedural_fixture_invisible_to_syntactic_rules():
    """The headline case: bad_rl601 fires RL601 and *only* RL601 — in
    particular none of the syntactic determinism rules RL101-105 see
    it, because the source (bare id()) and the sink (trace.record) sit
    in different functions."""
    path = CORPUS / "bad_rl601.py"
    syntactic = {
        f.code
        for f in lint_paths([path], select={"RL101", "RL102", "RL103", "RL104", "RL105"})
    }
    assert syntactic == set(), f"RL1xx unexpectedly fired: {syntactic}"
    flow_codes = {f.code for f in lint_paths([path], flow=True)}
    assert flow_codes == {"RL601"}
