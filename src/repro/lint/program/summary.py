"""Per-module extraction: everything the whole-program analyzer needs.

One :class:`ModuleSummary` is a digest of one source file — symbols,
imports, call references, and *candidate* findings (module-state
mutations, RNG constructions, attribute writes, …) with their source
locations.  Candidates carry no verdict: whether a mutation is a
shard-safety violation depends on reachability from the worker entry
points, which only the assembled program knows.

Program rules judge these digests, not the AST, so every location a
program rule might report is recorded here, at extraction time,
together with the first line of its enclosing statement (so
``# repro: allow[...]`` pragmas keep working).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

__all__ = [
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "extract_summary",
]

#: Module-level value kinds treated as shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}

#: Receiver methods that mutate their object in place.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}


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
    #: Candidate shared-state mutations: ``{"name", "kind", "lineno",
    #: "col", "stmt_line"}`` where ``name`` is the raw (possibly dotted)
    #: receiver and ``kind`` one of ``rebind-global``/``subscript``/
    #: ``del``/``method:<m>``/``augassign``.
    mutations: List[Dict[str, Any]] = field(default_factory=list)
    #: ``random.Random`` constructions: ``{"lineno", "col", "stmt_line",
    #: "seeded"}`` — ``seeded`` when the argument expression mentions a
    #: seed or calls ``derive_seed``.
    rng_sites: List[Dict[str, Any]] = field(default_factory=list)
    #: ``SweepExecutor.run/map`` call sites: ``{"arg", "hazard",
    #: "lineno", "col", "stmt_line", "method"}``; ``arg`` is the dotted
    #: name of the worker argument (or "" for a lambda), ``hazard`` a
    #: human reason when the argument cannot cross a pickle boundary.
    executor_calls: List[Dict[str, Any]] = field(default_factory=list)
    #: Lambdas passed into ``ShardSpec``/``make_shards`` payload flows.
    payload_hazards: List[Dict[str, Any]] = field(default_factory=list)
    #: Broad exception handlers: ``{"what": "bare"|"Exception"|
    #: "BaseException", "handled", "lineno", "col", "stmt_line"}``;
    #: ``handled`` means the handler re-raises or demonstrably records
    #: the failure (RL701 judges the rest by reachability).
    handlers: List[Dict[str, Any]] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    lineno: int
    methods: List[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    module: str
    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: Local name -> dotted import target (modules and symbols alike).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Module-level assigned names -> value kind ("list"/"dict"/…/"other").
    module_globals: Dict[str, str] = field(default_factory=dict)
    #: lineno -> suppressed codes (mirror of the single-file pragma map).
    pragmas: Dict[int, List[str]] = field(default_factory=dict)

    def in_package(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


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


def _value_kind(value: Optional[ast.expr]) -> str:
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        callee = _dotted(value.func)
        if callee:
            tail = callee.split(".")[-1]
            if tail in _MUTABLE_CONSTRUCTORS:
                return tail if tail in ("list", "dict", "set") else "dict"
    return "other"


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


def _local_bindings(fn: ast.AST) -> Set[str]:
    """Names bound in ``fn``'s own scope (params, assignments, loops…)."""
    bound: Set[str] = set()
    args = fn.args  # type: ignore[attr-defined]
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    globals_declared: Set[str] = set()

    def note_target(t: ast.expr) -> None:
        if isinstance(t, ast.Name):
            bound.add(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                note_target(e)
        elif isinstance(t, ast.Starred):
            note_target(t.value)

    for node in _walk_own_scope(fn):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                note_target(t)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            note_target(node.target)
        elif isinstance(node, ast.For):
            note_target(node.target)
        elif isinstance(node, ast.withitem) and node.optional_vars is not None:
            note_target(node.optional_vars)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            note_target(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.comprehension,)):
            note_target(node.target)
    return bound - globals_declared


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


def _annotation_source(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    # Defensive only (unparse is total on 3.9+); the annotation text is
    # cosmetic, so the empty fallback loses nothing worth recording.
    except Exception:  # pragma: no cover  # repro: allow[RL701]
        return ""


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


def _expr_mentions_seed(node: ast.expr) -> bool:
    text = ast.unparse(node)
    return "seed" in text.lower()


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
        self._module_level()
        synthetic = FunctionSummary(
            qualname="<module>", name="<module>", lineno=1, col=0
        )
        self._scan_body(self.tree.body, synthetic, bound=set())
        if synthetic.executor_calls:
            self.summary.functions["<module>"] = synthetic
        return self.summary

    # -- module level --------------------------------------------------------

    def _module_level(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.summary.module_globals[t.id] = _value_kind(node.value)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                kind = _value_kind(node.value)
                if kind == "other":
                    ann = _annotation_source(node.annotation).lower()
                    for marker in ("list", "dict", "set"):
                        if marker in ann:
                            kind = marker
                            break
                self.summary.module_globals[node.target.id] = kind
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(node, qual=node.name, cls=None, nested=False,
                                    enclosing_bound=set())
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)

    def _scan_class(self, node: ast.ClassDef) -> None:
        cs = ClassSummary(name=node.name, lineno=node.lineno)
        self.summary.classes[node.name] = cs
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cs.methods.append(item.name)
                self._scan_function(
                    item,
                    qual=f"{node.name}.{item.name}",
                    cls=node.name,
                    nested=False,
                    enclosing_bound=set(),
                )

    # -- functions -----------------------------------------------------------

    def _scan_function(
        self,
        node: ast.AST,
        qual: str,
        cls: Optional[str],
        nested: bool,
        enclosing_bound: Set[str],
    ) -> None:
        args = node.args  # type: ignore[attr-defined]
        name = node.name  # type: ignore[attr-defined]
        fs = FunctionSummary(
            qualname=qual,
            name=name,
            lineno=node.lineno,  # type: ignore[attr-defined]
            col=node.col_offset,  # type: ignore[attr-defined]
            cls=cls or "",
            nested=nested,
        )
        bound = _local_bindings(node)
        param_anns: Dict[str, str] = {
            a.arg: _annotation_source(a.annotation)
            for a in args.posonlyargs + args.args + args.kwonlyargs
        }

        globals_declared: Set[str] = set()
        for inner in _walk_own_scope(node):
            if isinstance(inner, (ast.Global, ast.Nonlocal)):
                globals_declared.update(inner.names)
            elif isinstance(inner, ast.ExceptHandler):
                kind = _handler_kind(inner)
                if kind is not None:
                    fs.handlers.append(
                        self._site(
                            inner,
                            {"what": kind, "handled": _handler_records_failure(inner)},
                        )
                    )
        self._scan_body(
            list(getattr(node, "body", [])),
            fs,
            bound=bound | enclosing_bound,
            param_anns=param_anns,
            globals_declared=globals_declared,
        )
        self.summary.functions[qual] = fs
        for inner in _walk_own_scope(node):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fs.nested_defs.append(inner.name)
                self._scan_function(
                    inner,
                    qual=f"{qual}.<locals>.{inner.name}",
                    cls=None,
                    nested=True,
                    enclosing_bound=bound | enclosing_bound,
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

    def _scan_body(
        self,
        body: List[ast.stmt],
        fs: FunctionSummary,
        bound: Set[str],
        param_anns: Optional[Dict[str, str]] = None,
        globals_declared: Optional[Set[str]] = None,
    ) -> None:
        param_anns = param_anns or {}
        globals_declared = globals_declared or set()
        executor_names = self._executor_locals(body, param_anns)
        fake_scope = ast.Module(body=body, type_ignores=[])
        for node in _walk_own_scope(fake_scope):
            if isinstance(node, ast.Call):
                self._scan_call(node, fs, bound, executor_names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._scan_assign(node, fs, bound, globals_declared)
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if isinstance(t, ast.Subscript):
                        base = _dotted(t.value)
                        if base and base.split(".")[0] not in bound:
                            fs.mutations.append(
                                self._site(node, {"name": base, "kind": "del"})
                            )

    def _executor_locals(
        self, body: List[ast.stmt], param_anns: Dict[str, str]
    ) -> Set[str]:
        """Names in this scope that hold a ``SweepExecutor`` instance."""
        names = {p for p, ann in param_anns.items() if "SweepExecutor" in ann}
        fake_scope = ast.Module(body=body, type_ignores=[])
        for node in _walk_own_scope(fake_scope):
            if isinstance(node, ast.Assign):
                if self._constructs_executor(node.value):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            names.add(t.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if "SweepExecutor" in _annotation_source(node.annotation) or (
                    node.value is not None and self._constructs_executor(node.value)
                ):
                    names.add(node.target.id)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                if self._constructs_executor(node.context_expr) and isinstance(
                    node.optional_vars, ast.Name
                ):
                    names.add(node.optional_vars.id)
        return names

    @staticmethod
    def _constructs_executor(value: ast.expr) -> bool:
        # ``owned_executor(...)`` yields a SweepExecutor (borrowed or
        # constructed), so a ``with ... as ex`` binding counts too.
        for inner in ast.walk(value):
            if isinstance(inner, ast.Call):
                callee = _dotted(inner.func)
                if callee and callee.split(".")[-1] in (
                    "SweepExecutor",
                    "owned_executor",
                ):
                    return True
        return False

    def _scan_call(
        self,
        node: ast.Call,
        fs: FunctionSummary,
        bound: Set[str],
        executor_names: Set[str],
    ) -> None:
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
        tail = raw.split(".")[-1] if raw else ""
        # Mutating method call on a non-local receiver.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATING_METHODS
        ):
            recv = _dotted(node.func.value)
            if recv and recv.split(".")[0] not in bound:
                fs.mutations.append(
                    self._site(node, {"name": recv, "kind": f"method:{node.func.attr}"})
                )
        # random.Random construction (alias-resolved at rule time via imports).
        if tail == "Random":
            seeded = any(
                _expr_mentions_seed(a)
                or (isinstance(a, ast.Call) and (_dotted(a.func) or "").endswith("derive_seed"))
                for a in list(node.args) + [kw.value for kw in node.keywords]
            )
            fs.rng_sites.append(self._site(node, {"seeded": seeded, "callee": raw or ""}))
        # SweepExecutor.run/map dispatch sites.
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("run", "map"):
            recv = _dotted(node.func.value)
            recv_is_executor = (
                recv in executor_names
                if recv
                else self._constructs_executor(node.func.value)
            )
            if recv_is_executor and node.args:
                worker = node.args[0]
                entry: Dict[str, Any] = {"method": node.func.attr, "arg": "", "hazard": ""}
                if isinstance(worker, ast.Lambda):
                    entry["hazard"] = "lambda"
                else:
                    dotted = _dotted(worker)
                    if dotted:
                        entry["arg"] = dotted
                    else:
                        entry["hazard"] = "dynamic"
                fs.executor_calls.append(self._site(node, entry))
        # Lambdas flowing into the shard payload protocol.
        if tail in ("ShardSpec", "make_shards"):
            for arg in ast.walk(node):
                if isinstance(arg, ast.Lambda):
                    fs.payload_hazards.append(
                        self._site(arg, {"flow": tail})
                    )
                    break

    def _scan_assign(
        self,
        node: ast.stmt,
        fs: FunctionSummary,
        bound: Set[str],
        globals_declared: Set[str],
    ) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        else:
            targets = [node.target]  # type: ignore[attr-defined]
        kind = "augassign" if isinstance(node, ast.AugAssign) else "assign"
        for t in targets:
            if isinstance(t, ast.Name):
                if t.id in globals_declared:
                    fs.mutations.append(
                        self._site(node, {"name": t.id, "kind": "rebind-global"})
                    )
            elif isinstance(t, ast.Subscript):
                base = _dotted(t.value)
                if base and base.split(".")[0] not in bound:
                    fs.mutations.append(
                        self._site(
                            node,
                            {
                                "name": base,
                                "kind": "subscript" if kind == "assign" else "augassign",
                            },
                        )
                    )


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
