"""Whole-program analysis: symbol tables and the call graph.

This package turns per-file lint into interprocedural analysis.  Each
source file is digested into a :class:`~repro.lint.program.summary.
ModuleSummary` (symbols, imports, calls and broad exception handlers);
summaries assemble into a :class:`~repro.lint.program.callgraph.
ProgramIndex` and :class:`~repro.lint.program.callgraph.CallGraph`; the
:class:`~repro.lint.program.analyzer.ProgramContext` on top knows which
functions are reachable from the event engine's dispatch loop.  RL701
consumes that context (see :mod:`repro.lint.rules.flow_exceptions`).
Every lint run that selects it builds the program — by default, every
run.
"""

from __future__ import annotations

from repro.lint.program.analyzer import build_program, ProgramContext, ProgramReporter
from repro.lint.program.callgraph import CallGraph, func_id, ProgramIndex
from repro.lint.program.summary import extract_summary, ModuleSummary

__all__ = [
    "build_program",
    "ProgramContext",
    "ProgramReporter",
    "CallGraph",
    "ProgramIndex",
    "func_id",
    "extract_summary",
    "ModuleSummary",
]
