"""Assembling summaries into a program: dispatch roots, reachability,
and the reporter program rules emit through.

Dispatch roots for RL701 are the public methods of ``EventEngine`` in
``repro.sim.engine`` — the dispatch loop and the schedule calls that
feed it.  Every callback ever passed to the scheduler is reachable
from there via the reference edges.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.lint.program.callgraph import CallGraph, func_id, ProgramIndex
from repro.lint.program.summary import ModuleSummary

__all__ = ["ProgramContext", "ProgramReporter", "build_program"]

#: The modules and class owning the simulation dispatch loop.
_DISPATCH_MODULES = ("repro.sim.engine",)
_DISPATCH_CLASS = "EventEngine"


class ProgramContext:
    """Everything an interprocedural rule consults."""

    def __init__(self, index: ProgramIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.dispatch_roots = self._dispatch_roots()
        self.dispatch_reachable = graph.reachable(self.dispatch_roots)

    def _dispatch_roots(self) -> Set[str]:
        roots: Set[str] = set()
        for module, ms in self.index.modules.items():
            if not any(
                module == dispatch
                or module.startswith(dispatch + ".")
                or module.endswith("." + dispatch.rsplit(".", 1)[-1])
                for dispatch in _DISPATCH_MODULES
            ):
                continue
            for qual, fs in ms.functions.items():
                if (
                    fs.cls == _DISPATCH_CLASS
                    and not fs.nested
                    and not fs.name.startswith("_")
                ):
                    roots.add(func_id(module, qual))
        return roots


class ProgramReporter:
    """Findings sink with pragma suppression and usage tracking.

    Mirrors :meth:`repro.lint.core.LintContext.add`, but works from the
    summary's pragma map, since program rules see summaries, not ASTs.
    """

    def __init__(self) -> None:
        self.findings: List[object] = []
        #: path -> {(pragma_line, code)} that suppressed something.
        self.used_pragmas: Dict[str, Set[Tuple[int, str]]] = {}

    def add(
        self,
        ms: ModuleSummary,
        site: dict,
        code: str,
        message: str,
        hint: str = "",
    ) -> None:
        from repro.lint.core import Finding

        lineno = int(site.get("lineno", 1))
        stmt_line = int(site.get("stmt_line", lineno))
        for probe in (lineno, stmt_line):
            codes = ms.pragmas.get(probe)
            if codes is not None and (code in codes or "*" in codes):
                self.used_pragmas.setdefault(ms.path, set()).add((probe, code))
                return
        self.findings.append(
            Finding(ms.path, lineno, int(site.get("col", 0)), code, message, hint)
        )


def build_program(summaries: Dict[str, ModuleSummary]) -> ProgramContext:
    """Index + call graph + reachability over a set of module summaries."""
    index = ProgramIndex(summaries)
    return ProgramContext(index, CallGraph.build(index))
