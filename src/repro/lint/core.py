"""The analysis driver: file discovery, pragma handling, rule dispatch.

The linter is a plain ``ast`` walker — no third-party dependencies —
organised around small rule plugins (see :mod:`repro.lint.rules`).
Each rule owns one error code, a scope (the dotted module prefixes it
applies to) and a per-file ``check(ctx)``.  Suppression happens in one
place: an inline pragma ``# repro: allow[CODE]`` on the flagged line
(or on the first line of the flagged statement), with a justification
comment right where the exception lives.  RL001 keeps pragmas honest:
one that no longer suppresses anything is itself a finding.

``lint_paths`` is the one orchestration point: it parses each file
once, runs every rule on its AST and then audits the file's pragmas.
A file that is not UTF-8 or does not parse is one RL000 finding, and
the run goes on with the next file.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "register_rule",
    "all_rules",
    "module_name_for",
    "lint_paths",
    "LintRun",
]

#: Inline suppression pragma — ``allow[...]`` takes one code or a comma list.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s*]+)\]")

#: Optional fixture directive overriding the module scope derived from
#: the file path (a comment line starting ``# repro-lint-module:``
#: within the first few lines).  Lets the test corpus exercise
#: package-scoped rules from ``tests/lint/``.
_MODULE_DIRECTIVE_RE = re.compile(r"^# repro-lint-module:\s*([A-Za-z0-9_.]+)\s*$", re.MULTILINE)
_MODULE_DIRECTIVE_WINDOW = 5  # lines from the top of the file

#: Code of the stale-suppression meta rule (see rules/suppression.py).
STALE_SUPPRESSION_CODE = "RL001"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
        if self.hint:
            text += f"\n    fix: {self.hint}"
        return text

    def to_json(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintContext:
    """Everything a per-file rule needs to inspect one file."""

    path: Path
    module: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    #: line number -> codes suppressed by an inline pragma on that line.
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: line -> first line of the statement that contains it (pragmas on a
    #: multi-line statement's first line cover the whole statement).
    statement_starts: Dict[int, int] = field(default_factory=dict)
    #: ``(pragma_line, code)`` pairs that suppressed at least one finding.
    used_pragmas: Set[Tuple[int, str]] = field(default_factory=set)

    def in_module(self, prefixes: Sequence[str]) -> bool:
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    def is_suppressed(self, line: int, code: str) -> bool:
        for probe in (line, self.statement_starts.get(line, line)):
            codes = self.pragmas.get(probe)
            if codes is not None and (code in codes or "*" in codes):
                self.used_pragmas.add((probe, code))
                return True
        return False

    def add(self, node: ast.AST, code: str, message: str, hint: str = "") -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.is_suppressed(line, code):
            return
        self.findings.append(
            Finding(str(self.path), line, col, code, message, hint)
        )


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`scope` (dotted
    module prefixes the rule applies to; empty = every file) and
    implement :meth:`check`.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    #: Dotted module prefixes this rule fires in; () applies everywhere.
    scope: Tuple[str, ...] = ()

    def applies_to(self, ctx: LintContext) -> bool:
        return not self.scope or ctx.in_module(self.scope)

    def check(self, ctx: LintContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by code."""
    from repro.lint import rules as _rules  # noqa: F401  (triggers registration)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def module_name_for(path: Path) -> str:
    """Dotted module path for ``path``, anchored at the ``repro`` package.

    Files outside a ``repro`` package tree (tests, examples) get their
    bare stem — package-scoped rules then simply don't apply, unless the
    file carries a ``# repro-lint-module:`` directive (see fixtures).
    """
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[anchor:]
        if dotted[-1].endswith(".py"):
            dotted[-1] = dotted[-1][:-3]
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return path.stem


def _collect_pragmas(source: str) -> Dict[int, Set[str]]:
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            pragmas.setdefault(lineno, set()).update(codes)
    return pragmas


def _collect_statement_starts(tree: ast.Module) -> Dict[int, int]:
    starts: Dict[int, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            for line in range(node.lineno, end + 1):
                # Innermost statement wins: later (deeper) assignments
                # overwrite only when they start later.
                if line not in starts or node.lineno > starts[line]:
                    starts[line] = node.lineno
    return starts


def _effective_module(path: Path, source: str) -> str:
    module = module_name_for(path)
    header = "\n".join(source.splitlines()[:_MODULE_DIRECTIVE_WINDOW])
    directive = _MODULE_DIRECTIVE_RE.search(header)
    if directive:
        module = directive.group(1)
    return module


def _load(path: Path) -> Union[LintContext, Finding]:
    """The context to lint ``path`` in, or the RL000 finding that says
    why it cannot be linted."""
    raw = path.read_bytes()
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = raw.rfind(b"\n", 0, exc.start) + 1
        return Finding(
            str(path),
            raw.count(b"\n", 0, exc.start) + 1,
            exc.start - line_start,
            "RL000",
            f"not UTF-8: {exc.reason} at byte {exc.start}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            str(path),
            exc.lineno or 1,
            exc.offset or 0,
            "RL000",
            f"syntax error: {exc.msg}",
        )
    except ValueError as exc:  # a NUL byte, on Python 3.9 and 3.10
        return Finding(str(path), 1, 0, "RL000", f"syntax error: {exc}")
    return LintContext(
        path=path,
        module=_effective_module(path, source),
        tree=tree,
        source=source,
        lines=source.splitlines(),
        pragmas=_collect_pragmas(source),
        statement_starts=_collect_statement_starts(tree),
    )


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(
                sorted(
                    p
                    for p in path.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


@dataclass
class LintRun:
    """Everything one :func:`lint_paths` invocation produced."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0


def _stale_suppressions(ctx: LintContext, registered_codes: Set[str]) -> List[Finding]:
    """RL001: the file's pragmas that suppressed nothing.

    Every registered rule has just run on the file, so each pragma
    naming a registered code is judged.  A pragma naming an ``RLnnn``
    code that is not in the registry at all — a rule that was renamed
    or deleted — can never suppress anything again.  Other shapes are
    left alone: docs legitimately write placeholder pragmas like
    ``allow[CODE]`` in prose.
    """
    findings: List[Finding] = []
    for line in sorted(ctx.pragmas):
        for code in sorted(ctx.pragmas[line]):
            if code in registered_codes:
                if (line, code) in ctx.used_pragmas:
                    continue
                message = (
                    f"stale suppression: `# repro: allow[{code}]` no "
                    "longer suppresses any finding"
                )
                hint = (
                    "delete the pragma (or the justification comment "
                    "is describing code that moved — re-anchor it)"
                )
            elif re.fullmatch(r"RL\d{3}", code):
                message = (
                    f"suppression references unknown rule code "
                    f"`{code}` — no registered rule emits it"
                )
                hint = "the rule was renamed or removed; delete the pragma or update the code"
            else:
                continue
            findings.append(
                Finding(str(ctx.path), line, 0, STALE_SUPPRESSION_CODE, message, hint)
            )
    return findings


def lint_paths(
    paths: Iterable[Path],
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; deterministic order."""
    return lint_paths_run(paths, select).findings


def lint_paths_run(
    paths: Iterable[Path],
    select: Optional[Set[str]] = None,
) -> LintRun:
    """Like :func:`lint_paths` but returns the full :class:`LintRun`.

    Every rule runs on every file; ``select`` only filters what is
    reported (RL000 is always reported).
    """
    rules = all_rules()
    registered_codes = {r.code for r in rules}
    files = iter_python_files(paths)
    findings: List[Finding] = []
    for path in files:
        ctx = _load(path)
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        for rule in rules:
            if rule.applies_to(ctx):
                rule.check(ctx)
        findings.extend(ctx.findings)
        findings.extend(_stale_suppressions(ctx, registered_codes))

    if select is not None:
        findings = [f for f in findings if f.code in select or f.code == "RL000"]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintRun(findings, len(files))
