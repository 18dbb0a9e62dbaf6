"""Assembling summaries into a program: entry points, reachability,
and the reporter program rules emit through.

Worker entry points are discovered, not declared: every call site
``executor.run(fn, ...)`` / ``executor.map(fn, ...)`` whose receiver
was constructed from (or annotated as) ``SweepExecutor`` contributes
its ``fn`` — resolved through imports — as a shard worker root.  The
*worker cone* is everything reachable from those roots through the
call graph, dynamic-dispatch over-approximation included; RL4xx rules
judge candidates against that cone.

Dispatch roots for RL701 are the public methods of ``EventEngine`` in
``repro.sim.engine`` — the dispatch loop and the schedule calls
that feed it.  Every callback ever passed to the scheduler is reachable
from there via the reference edges.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Set, Tuple

from repro.lint.program.callgraph import CallGraph, func_id, ProgramIndex
from repro.lint.program.summary import FunctionSummary, ModuleSummary

__all__ = ["ProgramContext", "ProgramReporter", "build_program"]

#: The modules and class owning the simulation dispatch loop.
_DISPATCH_MODULES = ("repro.sim.engine",)
_DISPATCH_CLASS = "EventEngine"


class ProgramContext:
    """Everything an interprocedural rule consults."""

    def __init__(self, index: ProgramIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.worker_entries: Set[str] = set()
        #: Function ids of unresolvable/hazardous worker arguments,
        #: kept for RL402 (the entry list stays honest either way).
        self.worker_hazard_sites: List[Tuple[ModuleSummary, FunctionSummary, dict]] = []
        for ms, fs in index.iter_functions():
            for site in fs.executor_calls:
                if site.get("arg"):
                    self.worker_entries.update(
                        index.resolve_to_functions(ms, site["arg"])
                    )
                if site.get("hazard"):
                    self.worker_hazard_sites.append((ms, fs, site))
        self.worker_reachable = graph.reachable(self.worker_entries)
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
    """Findings sink with pragma/allowlist suppression and usage tracking.

    Mirrors :meth:`repro.lint.core.LintContext.add`, but works from the
    summary's pragma map, since program rules see summaries, not ASTs.
    """

    def __init__(self, allowed_codes_for: Callable[[Path], Set[str]]) -> None:
        self._allowed_codes_for = allowed_codes_for
        self._allowed_cache: Dict[str, Set[str]] = {}
        self.findings: List[object] = []
        #: path -> {(pragma_line, code)} that suppressed something.
        self.used_pragmas: Dict[str, Set[Tuple[int, str]]] = {}
        #: path -> allowlist codes that suppressed something.
        self.used_allowlist: Dict[str, Set[str]] = {}

    def _allowed(self, path: str) -> Set[str]:
        if path not in self._allowed_cache:
            self._allowed_cache[path] = self._allowed_codes_for(Path(path))
        return self._allowed_cache[path]

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
        if code in self._allowed(ms.path):
            self.used_allowlist.setdefault(ms.path, set()).add(code)
            return
        self.findings.append(
            Finding(ms.path, lineno, int(site.get("col", 0)), code, message, hint)
        )


def build_program(summaries: Dict[str, ModuleSummary]) -> ProgramContext:
    """Index + call graph + reachability over a set of module summaries."""
    index = ProgramIndex(summaries)
    return ProgramContext(index, CallGraph.build(index))
