"""Whole-program analysis: symbol tables and the call graph.

This package turns per-file lint into interprocedural analysis.  Each
source file is digested into a :class:`~repro.lint.program.summary.
ModuleSummary` (symbols, imports, calls, and candidate sites such as
module-state mutations and broad exception handlers); summaries
assemble into a :class:`~repro.lint.program.callgraph.ProgramIndex`
and :class:`~repro.lint.program.callgraph.CallGraph`; the
:class:`~repro.lint.program.analyzer.ProgramContext` on top knows which
functions are reachable from shard-worker entry points and from the
event engine's dispatch loop.  The RL4xx family and RL701 consume that
context (see :mod:`repro.lint.rules.shard_safety` and
:mod:`repro.lint.rules.flow_exceptions`).  Every lint run that
selects one of those rules builds it — by default, every run.
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
