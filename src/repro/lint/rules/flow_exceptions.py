"""RL7xx — exception-flow rules.

A callback on the event-dispatch path that silences errors leaves the
event queue consistent but the simulated world half-updated: the run
goes on and prints a wrong table instead of failing.

- RL701 — a broad/bare ``except`` on the event-dispatch path that
  neither re-raises nor demonstrably records the failure (references
  the bound exception, formats the traceback).  A program rule: it
  judges the broad-handler facts each
  :class:`~repro.lint.program.summary.FunctionSummary` records against
  the functions reachable from the event engine's dispatch loop.
- RL702 — ``return``/``break``/``continue`` lexically inside a
  ``finally`` block in a deterministic package: the jump silently
  discards any in-flight exception (and with it the scheduler state
  the handler was supposed to restore or report).  A per-file rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Tuple

from repro.lint.core import LintContext, register_rule, Rule
from repro.lint.program.analyzer import ProgramContext, ProgramReporter
from repro.lint.rules.determinism import DETERMINISTIC_PACKAGES

__all__ = ["SwallowedDispatchException", "FinallyMasksFlow"]


@register_rule
class SwallowedDispatchException(Rule):
    code = "RL701"
    name = "swallowed-dispatch-exception"
    summary = "broad except swallows failures on the event-dispatch path"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        for fid in sorted(program.dispatch_reachable):
            found = program.index.function(fid)
            if found is None:
                continue
            ms, fs = found
            for handler in fs.handlers:
                if handler["handled"]:
                    continue
                what = (
                    "a bare `except:`"
                    if handler["what"] == "bare"
                    else f"`except {handler['what']}:`"
                )
                report.add(
                    ms,
                    handler,
                    self.code,
                    f"`{fs.qualname}` is reachable from the event-dispatch path "
                    f"and {what} swallows the exception — the event loop keeps "
                    "dispatching over half-updated state",
                    "catch the narrowest exception that is actually expected, "
                    "or re-raise / record the failure",
                )


def _try_statements(
    node: ast.AST, prefix: str = "", function: str = "<module>"
) -> Iterator[Tuple[str, ast.AST]]:
    """Every ``try`` with the qualname of the function it sits in
    (``f``, ``Cls.m``, ``f.<locals>.g``, as the program summaries name them)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            yield from _try_statements(child, f"{qualname}.<locals>.", qualname)
            continue
        if isinstance(child, ast.ClassDef):
            yield from _try_statements(child, f"{prefix}{child.name}.", function)
            continue
        if isinstance(child, ast.Try) or child.__class__.__name__ == "TryStar":
            yield function, child
        yield from _try_statements(child, prefix, function)


def _finally_jumps(finalbody: Sequence[ast.stmt]) -> List[Tuple[ast.stmt, str]]:
    """Jump statements that exit a ``finally`` block, discarding any
    in-flight exception.  ``break``/``continue`` targeting a loop fully
    inside the block are local and exempt."""
    out: List[Tuple[ast.stmt, str]] = []

    def walk(stmts: Sequence[ast.stmt], loop_depth: int) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                out.append((stmt, "return"))
            elif isinstance(stmt, ast.Break) and loop_depth == 0:
                out.append((stmt, "break"))
            elif isinstance(stmt, ast.Continue) and loop_depth == 0:
                out.append((stmt, "continue"))
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                walk(stmt.body, loop_depth + 1)
                walk(stmt.orelse, loop_depth)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, field, []), loop_depth)
                for handler in getattr(stmt, "handlers", []):
                    walk(handler.body, loop_depth)

    walk(finalbody, 0)
    return out


@register_rule
class FinallyMasksFlow(Rule):
    code = "RL702"
    name = "finally-masks-flow"
    summary = "return/break/continue inside finally discards in-flight exceptions"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        for qualname, node in _try_statements(ctx.tree):
            for jump, kind in _finally_jumps(getattr(node, "finalbody", [])):
                ctx.add(
                    jump,
                    self.code,
                    f"`{qualname}` has `{kind}` inside a `finally` block — "
                    "it silently replaces any in-flight exception, so "
                    "scheduler failures vanish mid-cleanup",
                    "keep finally blocks straight-line cleanup; move the "
                    f"`{kind}` after the try statement so exceptions keep "
                    "propagating",
                )
