"""RL7xx — exception-flow rules.

A callback on the event-dispatch path that silences errors leaves the
event queue consistent but the simulated world half-updated: the run
goes on and prints a wrong table instead of failing.  Every callback
the engine dispatches lives in a deterministic package, so both rules
are per-file rules scoped to those packages.

- RL701 — a bare ``except:``, or an ``except`` naming ``Exception`` or
  ``BaseException`` (alone or in a tuple), that neither re-raises, nor
  reads the bound exception, nor calls ``traceback.*``.  Every such
  handler in scope is judged, whether the event loop can reach it or
  not, so the rule needs no call graph.
- RL702 — ``return``/``break``/``continue`` lexically inside a
  ``finally`` block: the jump silently discards any in-flight exception
  (and with it the scheduler state the handler was supposed to restore
  or report).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.lint.core import LintContext, register_rule, Rule
from repro.lint.rules._util import dotted_name
from repro.lint.rules.determinism import DETERMINISTIC_PACKAGES

__all__ = ["SwallowedException", "FinallyMasksFlow"]


def _try_statements(
    node: ast.AST, prefix: str = "", function: str = "<module>"
) -> Iterator[Tuple[str, ast.AST]]:
    """Every ``try`` with the qualname of the function it sits in
    (``f``, ``Cls.m``, ``f.<locals>.g``; ``<module>`` outside any)."""
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


def _broad_handler(handler: ast.ExceptHandler) -> Optional[str]:
    """How a broad handler reads in a message, or None for a narrow one."""
    if handler.type is None:
        return "a bare `except:`"
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        tail = (dotted_name(node) or "").rsplit(".", 1)[-1]
        if tail in ("Exception", "BaseException"):
            return f"`except {tail}:`"
    return None


def _keeps_error(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises, reads its bound name or calls
    ``traceback.*``.  A nested function or lambda runs later, if ever,
    so what its body does keeps nothing."""
    stack: List[ast.AST] = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id == handler.name:
                return True
        elif isinstance(node, ast.Call):
            if (dotted_name(node.func) or "").split(".", 1)[0] == "traceback":
                return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


@register_rule
class SwallowedException(Rule):
    code = "RL701"
    name = "swallowed-exception"
    summary = "broad except swallows failures in a deterministic package"
    scope = DETERMINISTIC_PACKAGES

    def check(self, ctx: LintContext) -> None:
        for qualname, node in _try_statements(ctx.tree):
            for handler in getattr(node, "handlers", []):
                what = _broad_handler(handler)
                if what is None or _keeps_error(handler):
                    continue
                ctx.add(
                    handler,
                    self.code,
                    f"`{qualname}` has {what} that swallows the exception — "
                    "the run goes on over half-updated state and can print a "
                    "wrong table",
                    "catch the narrowest exception that is actually expected, "
                    "or re-raise / record the failure",
                )


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
