"""The product of the intraprocedural solver.

One :class:`FunctionFlow` per function records everything the
interprocedural composition (:mod:`repro.lint.flow.interp`) needs, so
composition works from these summaries alone, never from an AST.

Tokens are 2-tuples:

- ``("kind", K)`` — a concrete taint kind produced in this function
  (``time`` / ``entropy`` / ``id`` / ``setorder``);
- ``("param", NAME)`` — the value of parameter ``NAME`` (context
  dependent: the caller substitutes its argument tokens);
- ``("call", SITE)`` — the return value of the call at ``SITE``
  (resolved against the callee's summary at composition time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = [
    "Token",
    "FunctionFlow",
    "ModuleFlow",
    "KIND_TIME",
    "KIND_ENTROPY",
    "KIND_ID",
    "KIND_SETORDER",
    "KIND_LABELS",
    "SINK_LABELS",
]

Token = Tuple[str, str]

KIND_TIME = "time"
KIND_ENTROPY = "entropy"
KIND_ID = "id"
KIND_SETORDER = "setorder"

#: Human phrasing per taint kind, used in findings.
KIND_LABELS: Dict[str, str] = {
    KIND_TIME: "wall-clock-derived",
    KIND_ENTROPY: "ambient-entropy-derived",
    KIND_ID: "object-identity (id())-derived",
    KIND_SETORDER: "set-iteration-order-dependent",
}

#: Human phrasing per sink kind, used in findings.
SINK_LABELS: Dict[str, str] = {
    "trace": "trace output",
    "metrics": "a metrics fold",
    "wire": "a wire encoder",
    "seed": "an RNG seed path that bypasses derive_seed",
}


@dataclass
class FunctionFlow:
    """Dataflow digest of one function (methods and nested defs too)."""

    qualname: str
    #: Positional parameter names, ``self``/``cls`` excluded so index i
    #: lines up with argument i at an attribute call site.
    params: List[str] = field(default_factory=list)
    #: Tokens that may reach a ``return`` (union over all returns).
    returns: List[Token] = field(default_factory=list)
    #: site id -> call record: ``callee`` (raw dotted name, "" for an
    #: unresolvable receiver), ``attr`` (method name for attribute
    #: calls), ``recv``/``args``/``kwargs`` token sets, ``sanitize``
    #: (kinds this call scrubs, e.g. sorted() and set order), location.
    calls: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Sink reaches: ``{"kind", "tokens", "lineno", "col", "stmt_line",
    #: "label"}`` — tokens may still contain params/calls; the verdict
    #: is composition's job.
    sinks: List[Dict[str, Any]] = field(default_factory=list)
    #: Broad exception handlers: ``{"what": "bare"|"Exception"|
    #: "BaseException", "handled": bool, ...location}``.  ``handled``
    #: means the handler re-raises or demonstrably records the failure.
    handlers: List[Dict[str, Any]] = field(default_factory=list)
    #: ``return``/``break``/``continue`` lexically inside a ``finally``
    #: block (they silently discard an in-flight exception).
    finally_jumps: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ModuleFlow:
    """Every function flow of one module, keyed by qualname."""

    module: str
    functions: Dict[str, FunctionFlow] = field(default_factory=dict)
