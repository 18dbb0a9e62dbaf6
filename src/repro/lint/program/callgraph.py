"""Project-wide symbol resolution and the call graph.

Function nodes are identified as ``"<module>::<qualname>"``.  Edges are
built from the per-module summaries alone — no ASTs.

Resolution is deliberately asymmetric about precision:

- **Named calls** resolve exactly, through import aliases and package
  re-exports (``from repro.sim import EventEngine`` follows the
  ``__init__`` hop to ``repro.sim.engine``).
- **Attribute calls on unresolved receivers** (``client.fetch(...)``)
  fall back to *dynamic-dispatch over-approximation*: an edge to every
  known method of that name.  A reachability rule must never miss a
  path because it could not type a receiver; the cost is a fatter
  reachable set, never a missed one.
- **Function references passed as arguments** become edges from both
  the caller and the callee to the referenced function — the callee
  may invoke its argument (that is how scheduler callbacks actually
  run).

Calls into modules outside the analyzed tree resolve to nothing and
add no edges (the stdlib does not call back into simulation state).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.program.summary import FunctionSummary, ModuleSummary

__all__ = ["Entity", "ProgramIndex", "CallGraph", "func_id"]

#: Maximum re-export hops followed while resolving a dotted name; a
#: cycle of ``from . import x`` aliases terminates here.
_MAX_REEXPORT_HOPS = 16


def func_id(module: str, qualname: str) -> str:
    return f"{module}::{qualname}"


class Entity:
    """A resolved program symbol: a function/method or a class."""

    __slots__ = ("kind", "module", "name")

    def __init__(self, kind: str, module: str, name: str) -> None:
        self.kind = kind  # "function" | "class"
        self.module = module
        self.name = name  # function qualname or class name

    @property
    def id(self) -> str:
        return func_id(self.module, self.name)


class ProgramIndex:
    """Symbol table over every analyzed module."""

    def __init__(self, summaries: Dict[str, ModuleSummary]) -> None:
        self.modules = summaries
        #: method name -> every "<module>::<Cls>.<name>" that defines it.
        self.methods_by_name: Dict[str, List[str]] = {}
        for module in sorted(summaries):
            ms = summaries[module]
            for qual, fs in ms.functions.items():
                if fs.cls:
                    self.methods_by_name.setdefault(fs.name, []).append(
                        func_id(module, qual)
                    )

    def function(self, fid: str) -> Optional[Tuple[ModuleSummary, FunctionSummary]]:
        module, _, qual = fid.partition("::")
        ms = self.modules.get(module)
        if ms is None:
            return None
        fs = ms.functions.get(qual)
        return (ms, fs) if fs is not None else None

    def iter_functions(self) -> Iterable[Tuple[ModuleSummary, FunctionSummary]]:
        for module in sorted(self.modules):
            ms = self.modules[module]
            for qual in sorted(ms.functions):
                yield ms, ms.functions[qual]

    # -- name resolution -----------------------------------------------------

    def resolve(self, ms: ModuleSummary, raw: str) -> Optional[Entity]:
        """Resolve a raw dotted name from ``ms`` to a program entity.

        Follows import aliases and package re-exports.  Returns ``None``
        for locals, externals and anything receiver-typed (``self.x``).
        """
        if not raw or raw.split(".", 1)[0] in ("self", "cls"):
            return None
        seen: Set[Tuple[str, str]] = set()
        module, dotted = ms.module, raw
        for _ in range(_MAX_REEXPORT_HOPS):
            if (module, dotted) in seen:
                return None
            seen.add((module, dotted))
            current = self.modules.get(module)
            if current is None:
                return None
            head, _, rest = dotted.partition(".")
            # Local definition in this module?
            if dotted in current.functions:
                return Entity("function", module, dotted)
            if head in current.classes:
                if not rest:
                    return Entity("class", module, head)
                if f"{head}.{rest}" in current.functions:
                    return Entity("function", module, f"{head}.{rest}")
                return Entity("class", module, head)
            # Import alias?
            if head in current.imports:
                dotted = current.imports[head] + (("." + rest) if rest else "")
                module, dotted = self._split_absolute(dotted)
                if module is None:
                    return None
                if not dotted:
                    return None  # a bare module reference
                continue
            # Absolute dotted path straight into the tree?
            if rest:
                module, dotted = self._split_absolute(dotted)
                if module is None or not dotted:
                    return None
                continue
            return None
        return None

    def _split_absolute(self, dotted: str) -> Tuple[Optional[str], str]:
        """Split ``a.b.c.f`` into (longest known module prefix, remainder)."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, ".".join(parts[cut:])
        # Entire dotted path may itself be a module (bare module ref).
        if dotted in self.modules:
            return dotted, ""
        return None, dotted

    def resolve_to_functions(self, ms: ModuleSummary, raw: str) -> List[str]:
        """Function ids a call/reference to ``raw`` may land on."""
        entity = self.resolve(ms, raw)
        if entity is None:
            return []
        if entity.kind == "function":
            return [entity.id]
        out = []
        for init in ("__init__", "__post_init__"):
            fid = func_id(entity.module, f"{entity.name}.{init}")
            if self.function(fid) is not None:
                out.append(fid)
        return out


class CallGraph:
    """Adjacency over function ids, with worklist reachability."""

    def __init__(self, edges: Dict[str, Set[str]]) -> None:
        self.edges = edges

    @classmethod
    def build(cls, index: ProgramIndex) -> "CallGraph":
        edges: Dict[str, Set[str]] = {}

        def add(src: str, dst: str) -> None:
            if src != dst:
                edges.setdefault(src, set()).add(dst)

        for ms, fs in index.iter_functions():
            src = func_id(ms.module, fs.qualname)
            edges.setdefault(src, set())
            for raw in fs.calls:
                resolved = index.resolve_to_functions(ms, raw)
                if resolved:
                    for dst in resolved:
                        add(src, dst)
                elif "." in raw:
                    # ``x.m(...)`` with an untypeable receiver: dynamic
                    # dispatch over-approximation on the method name.
                    for dst in index.methods_by_name.get(raw.rsplit(".", 1)[1], ()):
                        add(src, dst)
            for name in fs.attr_calls:
                for dst in index.methods_by_name.get(name, ()):
                    add(src, dst)
            for raw in fs.refs:
                targets = index.resolve_to_functions(ms, raw)
                if not targets and "." in raw:
                    targets = list(index.methods_by_name.get(raw.rsplit(".", 1)[1], ()))
                for dst in targets:
                    # The caller holds the reference; every callee it
                    # passes the reference to may invoke it.
                    add(src, dst)
                    for callee in list(edges.get(src, ())):
                        add(callee, dst)
            for nested in fs.nested_defs:
                add(src, func_id(ms.module, f"{fs.qualname}.<locals>.{nested}"))
        return cls(edges)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.edges]
        seen.update(stack)
        while stack:
            node = stack.pop()
            for nxt in self.edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen
