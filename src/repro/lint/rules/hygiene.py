"""RL3xx — hot-path hygiene rules.

The engine allocates objects (events, trace entries, packets) at rates
where per-instance ``__dict__`` overhead is measurable, and where an
attribute materializing late gives instances of one class different
layouts.  These rules keep the hot-path classes slotted and their
attribute sets fixed at construction time.
"""

from __future__ import annotations

import ast
from typing import Set, Tuple

from repro.lint.core import LintContext, register_rule, Rule

__all__ = [
    "HOT_PATH_PACKAGES",
    "ATTR_STRICT_MODULES",
    "UnslottedDataclass",
    "AttrOutsideInit",
]

HOT_PATH_PACKAGES: Tuple[str, ...] = ("repro.sim", "repro.parallel", "repro.core")

#: Engine/codec modules where the attribute set of every class must be
#: closed at construction time.
ATTR_STRICT_MODULES: Tuple[str, ...] = (
    "repro.sim.engine",
    "repro.net",
    "repro.dns.name",
    "repro.dns.message",
)


def _decorator_base(decorator: ast.expr) -> ast.expr:
    return decorator.func if isinstance(decorator, ast.Call) else decorator


@register_rule
class UnslottedDataclass(Rule):
    code = "RL301"
    name = "unslotted-dataclass"
    summary = "plain @dataclass on a hot path (use repro._compat.slotted_dataclass)"
    scope = HOT_PATH_PACKAGES

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                base = _decorator_base(decorator)
                name = None
                if isinstance(base, ast.Name):
                    name = base.id
                elif isinstance(base, ast.Attribute):
                    name = base.attr
                if name == "dataclass":
                    ctx.add(
                        decorator,
                        self.code,
                        f"class `{node.name}` uses a plain @dataclass in "
                        f"hot-path package `{ctx.module}`",
                        "decorate with repro._compat.slotted_dataclass(...) — "
                        "slots on 3.10+, plain dataclass on 3.9, the same "
                        "API either way",
                    )


def _self_attr_target(node: ast.expr) -> str:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


class _ClassAttrAudit:
    """Declared-vs-assigned attribute accounting for one class body."""

    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.declared: Set[str] = set()
        # Class-level annotations/assignments and __slots__ entries.
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self.declared.add(item.target.id)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        self.declared.add(target.id)
                        if target.id == "__slots__":
                            self._add_slots(item.value)

    def _add_slots(self, value: ast.expr) -> None:
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    self.declared.add(element.value)
        elif isinstance(value, ast.Constant) and isinstance(value.value, str):
            self.declared.add(value.value)

    def collect_init(self) -> None:
        for item in self.node.body:
            if isinstance(item, ast.FunctionDef) and item.name in (
                "__init__",
                "__post_init__",
                "__new__",
            ):
                for inner in ast.walk(item):
                    if isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        targets = (
                            inner.targets
                            if isinstance(inner, ast.Assign)
                            else [inner.target]
                        )
                        for target in targets:
                            attr = _self_attr_target(target)
                            if attr:
                                self.declared.add(attr)


@register_rule
class AttrOutsideInit(Rule):
    code = "RL302"
    name = "attr-outside-init"
    summary = "new instance attribute introduced outside __init__/__slots__"
    scope = ATTR_STRICT_MODULES

    def check(self, ctx: LintContext) -> None:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            audit = _ClassAttrAudit(node)
            audit.collect_init()
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name in ("__init__", "__post_init__", "__new__"):
                    continue
                for inner in ast.walk(item):
                    if not isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                        continue
                    targets = (
                        inner.targets if isinstance(inner, ast.Assign) else [inner.target]
                    )
                    for target in targets:
                        attr = _self_attr_target(target)
                        if attr and attr not in audit.declared:
                            ctx.add(
                                inner,
                                self.code,
                                f"`self.{attr}` first assigned in "
                                f"`{node.name}.{item.name}` — the attribute set "
                                "must be closed at construction",
                                "initialize the attribute in __init__ (or add "
                                "it to __slots__); a late-materializing "
                                "attribute gives instances of one class "
                                "different layouts",
                            )
