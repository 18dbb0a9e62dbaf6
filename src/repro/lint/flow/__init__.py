"""Flow-sensitive dataflow engine for the repro linter.

Layers, bottom up:

- :mod:`repro.lint.flow.cfg` — per-function control-flow graphs from
  stdlib ``ast`` (branches, loops, try/except/finally, with, jumps);
- :mod:`repro.lint.flow.solver` — forward worklist solver over a small
  may-taint lattice producing per-function summaries;
- :mod:`repro.lint.flow.model` — the summary data model and the taint
  kind/sink vocabulary;
- :mod:`repro.lint.flow.interp` — interprocedural composition through
  the :mod:`repro.lint.program` symbol table, yielding the incidents
  the RL6xx/RL7xx rule families report.
"""

from repro.lint.flow.cfg import CFG, Block, build_cfg
from repro.lint.flow.interp import FlowProgram, build_flow_program
from repro.lint.flow.model import (
    FunctionFlow,
    KIND_ENTROPY,
    KIND_ID,
    KIND_LABELS,
    KIND_SETORDER,
    KIND_TIME,
    ModuleFlow,
    SINK_LABELS,
    Token,
)
from repro.lint.flow.solver import extract_flow, solve_function

__all__ = [
    "Block",
    "CFG",
    "build_cfg",
    "extract_flow",
    "solve_function",
    "FunctionFlow",
    "ModuleFlow",
    "Token",
    "FlowProgram",
    "build_flow_program",
    "KIND_TIME",
    "KIND_ENTROPY",
    "KIND_ID",
    "KIND_SETORDER",
    "KIND_LABELS",
    "SINK_LABELS",
]
