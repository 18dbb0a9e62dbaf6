"""Per-module extraction: everything the whole-program analyzer needs.

One :class:`ModuleSummary` is a digest of one source file — symbols,
imports, call references, and the broad exception handlers RL701
judges, with their source locations.  A handler carries no verdict:
whether it matters depends on reachability from the event engine's
dispatch loop, which only the assembled program knows.

Program rules judge these digests, not the AST, so every location a
program rule might report is recorded here, at extraction time,
together with the first line of its enclosing statement (so
``# repro: allow[...]`` pragmas keep working).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

__all__ = [
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "extract_summary",
]


@dataclass
class FunctionSummary:
    """One function or method (nested functions get their own entry)."""

    qualname: str  # "f", "Cls.f", "f.<locals>.g"
    name: str
    lineno: int
    col: int
    cls: str = ""  # owning class name, "" for module-level functions
    nested: bool = False
    #: Raw dotted call targets (``"foo"``, ``"mod.foo"``, ``"self.x.f"``).
    calls: List[str] = field(default_factory=list)
    #: Bare method names of calls whose receiver could not be resolved —
    #: the dynamic-dispatch over-approximation feeds from these.
    attr_calls: List[str] = field(default_factory=list)
    #: Dotted names passed as call arguments (potential callbacks).
    refs: List[str] = field(default_factory=list)
    #: Names of functions defined directly inside this one.
    nested_defs: List[str] = field(default_factory=list)
    #: Broad exception handlers: ``{"what": "bare"|"Exception"|
    #: "BaseException", "handled", "lineno", "col", "stmt_line"}``;
    #: ``handled`` means the handler re-raises or demonstrably records
    #: the failure (RL701 judges the rest by reachability).
    handlers: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    lineno: int


@dataclass
class ModuleSummary:
    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Local name -> dotted import target (modules and symbols alike).
    imports: Dict[str, str] = field(default_factory=dict)
    #: lineno -> suppressed codes (mirror of the single-file pragma map).
    pragmas: Dict[int, List[str]] = field(default_factory=dict)


# -- extraction --------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_imports(tree: ast.Module, module: str, is_package: bool) -> Dict[str, str]:
    """Local name -> absolute dotted target, relative imports resolved."""
    package = module if is_package else module.rsplit(".", 1)[0] if "." in module else ""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # ``import a.b`` binds ``a`` but also makes the full
                    # dotted path resolvable; record it under itself so
                    # prefix resolution can find it.
                    imports.setdefault(alias.name, alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return imports


def _walk_own_scope(fn: ast.AST) -> List[ast.AST]:
    """Every node in ``fn``'s body without descending into nested defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested scope gets its own summary
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def _handler_kind(handler: ast.ExceptHandler) -> Optional[str]:
    """"bare"/"Exception"/"BaseException" for broad handlers, else None."""
    if handler.type is None:
        return "bare"
    candidates = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for candidate in candidates:
        dotted = _dotted(candidate) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if tail in ("Exception", "BaseException"):
            return tail
    return None


def _handler_records_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or demonstrably keeps the error:
    it references the bound exception name, or formats the traceback.
    Swallowing means none of those — the failure becomes silence."""
    for node in _walk_own_scope(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            handler.name
            and isinstance(node, ast.Name)
            and node.id == handler.name
            and isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func) or ""
            if dotted.split(".", 1)[0] == "traceback":
                return True
    return False


class _Extractor:
    """Walks one module tree, producing its :class:`ModuleSummary`."""

    def __init__(self, module: str, path: str, tree: ast.Module, is_package: bool,
                 pragmas: Dict[int, Set[str]], statement_starts: Dict[int, int]) -> None:
        self.summary = ModuleSummary(
            module=module,
            path=path,
            imports=_collect_imports(tree, module, is_package),
            pragmas={k: sorted(v) for k, v in pragmas.items()},
        )
        self.tree = tree
        self.starts = statement_starts

    def run(self) -> ModuleSummary:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, qual=node.name, cls=None, nested=False)
            elif isinstance(node, ast.ClassDef):
                self.summary.classes[node.name] = ClassSummary(name=node.name, lineno=node.lineno)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_function(
                            item, qual=f"{node.name}.{item.name}", cls=node.name, nested=False
                        )
        return self.summary

    def _scan_function(
        self, node: ast.AST, qual: str, cls: Optional[str], nested: bool
    ) -> None:
        fs = FunctionSummary(
            qualname=qual,
            name=node.name,  # type: ignore[attr-defined]
            lineno=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            cls=cls or "",
            nested=nested,
        )
        inner_defs: List[ast.AST] = []
        for inner in _walk_own_scope(node):
            if isinstance(inner, ast.Call):
                self._scan_call(inner, fs)
            elif isinstance(inner, ast.ExceptHandler):
                kind = _handler_kind(inner)
                if kind is not None:
                    fs.handlers.append(
                        self._site(
                            inner,
                            {"what": kind, "handled": _handler_records_failure(inner)},
                        )
                    )
            elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_defs.append(inner)
        self.summary.functions[qual] = fs
        for inner in inner_defs:
            fs.nested_defs.append(inner.name)  # type: ignore[attr-defined]
            self._scan_function(
                inner,
                qual=f"{qual}.<locals>.{inner.name}",  # type: ignore[attr-defined]
                cls=None,
                nested=True,
            )

    def _site(self, node: ast.AST, extra: Dict[str, Any]) -> Dict[str, Any]:
        lineno = getattr(node, "lineno", 1)
        out = {
            "lineno": lineno,
            "col": getattr(node, "col_offset", 0),
            "stmt_line": self.starts.get(lineno, lineno),
        }
        out.update(extra)
        return out

    @staticmethod
    def _scan_call(node: ast.Call, fs: FunctionSummary) -> None:
        raw = _dotted(node.func)
        if raw:
            fs.calls.append(raw)
        elif isinstance(node.func, ast.Attribute):
            fs.attr_calls.append(node.func.attr)
        # Function references handed over as arguments (callbacks).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            ref = _dotted(arg)
            if ref is not None:
                fs.refs.append(ref)


def extract_summary(
    module: str,
    path: str,
    tree: ast.Module,
    *,
    is_package: bool = False,
    pragmas: Optional[Dict[int, Set[str]]] = None,
    statement_starts: Optional[Dict[int, int]] = None,
) -> ModuleSummary:
    """Digest one parsed module into its summary."""
    return _Extractor(
        module,
        path,
        tree,
        is_package,
        pragmas or {},
        statement_starts or {},
    ).run()
