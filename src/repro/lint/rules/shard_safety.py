"""RL4xx — shard-safety (fork-pool race) rules.

The parallel sweep engine (:mod:`repro.parallel`) runs shard workers in
forked processes.  Three classes of bug survive every unit test and
only corrupt results under parallel execution:

- a worker mutating module-level state — each fork mutates its own
  copy, the parent never sees it, and with a thread/serial backend the
  shards race each other (RL401);
- an unpicklable object (lambda, closure, nested function) flowing
  into the ``ShardSpec``/worker boundary — works under fork, explodes
  the moment the pool uses spawn, and captures parent state either way
  (RL402);
- a worker constructing its own RNG instead of deriving one from the
  shard seed — shard results then depend on scheduling, not on
  ``derive_seed(base_seed, shard_index)`` (RL403).

All three are interprocedural: whether a function is "on a worker
path" is a reachability question over the whole-program call graph.
The worker cone is over-approximated (dynamic dispatch resolves to
every same-named method), so a racy mutation is never missed because a
receiver could not be typed; the price is the occasional justified
RL401 allowlist entry on a deliberate per-process cache.
"""

from __future__ import annotations

from repro.lint.core import LintContext, register_rule, Rule
from repro.lint.program.analyzer import ProgramContext, ProgramReporter
from repro.lint.program.summary import ModuleSummary

__all__ = [
    "SharedStateMutation",
    "UnpicklableShardCapture",
    "WorkerRngBypass",
]

#: Kinds of module-global values whose *contents* count as shared state
#: (rebinding the name itself is flagged for every kind).
_MUTABLE_KINDS = ("list", "dict", "set")


def _is_random_random(ms: ModuleSummary, callee: str) -> bool:
    """Does ``callee`` (raw dotted source text) resolve to ``random.Random``?"""
    head, _, rest = callee.partition(".")
    target = ms.imports.get(head, head)
    full = f"{target}.{rest}" if rest else target
    return full == "random.Random"


@register_rule
class SharedStateMutation(Rule):
    code = "RL401"
    name = "shared-state-mutation"
    summary = "worker-reachable code mutates module-level state"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        index = program.index
        for fid in sorted(program.worker_reachable):
            found = index.function(fid)
            if found is None:
                continue
            ms, fs = found
            for site in fs.mutations:
                resolved = index.resolve_global(ms, site["name"])
                if resolved is None:
                    continue
                g_module, g_name, g_kind = resolved
                if not g_module.startswith("repro"):
                    continue
                if site["kind"] != "rebind-global" and g_kind not in _MUTABLE_KINDS:
                    continue
                verb = (
                    "rebinds"
                    if site["kind"] == "rebind-global"
                    else f"mutates ({site['kind']})"
                )
                report.add(
                    ms,
                    site,
                    self.code,
                    f"`{fs.qualname}` is reachable from a shard worker entry "
                    f"point and {verb} module-level `{g_module}.{g_name}` — "
                    "forked workers each mutate a private copy and shards "
                    "race under non-fork backends",
                    "thread the state through ShardPayload/ShardResult "
                    "instead; if this is a deliberate per-process memo "
                    "cache whose values are pure, add a justified "
                    "allowlist entry",
                )


@register_rule
class UnpicklableShardCapture(Rule):
    code = "RL402"
    name = "unpicklable-shard-capture"
    summary = "lambda/closure flows into the ShardSpec/worker boundary"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        index = program.index
        for ms, fs, site in program.worker_hazard_sites:
            what = (
                "a lambda"
                if site["hazard"] == "lambda"
                else "a dynamically-built callable"
            )
            report.add(
                ms,
                site,
                self.code,
                f"`{fs.qualname}` passes {what} to "
                f"SweepExecutor.{site['method']}() — workers must cross a "
                "pickle boundary",
                "hoist the worker to a module-level function taking a "
                "ShardSpec; put per-shard variation in ShardPayload",
            )
        for ms, fs in index.iter_functions():
            for site in fs.payload_hazards:
                report.add(
                    ms,
                    site,
                    self.code,
                    f"`{fs.qualname}` embeds a lambda in a "
                    f"{site['flow']} payload — payloads are pickled to "
                    "forked workers",
                    "payloads must be plain data; pass a symbolic tag and "
                    "dispatch to a module-level function inside the worker",
                )
            for site in fs.executor_calls:
                if not site.get("arg"):
                    continue
                for target in index.resolve_to_functions(ms, site["arg"]):
                    found = index.function(target)
                    if found is None:
                        continue
                    t_ms, t_fs = found
                    if t_fs.nested:
                        report.add(
                            ms,
                            site,
                            self.code,
                            f"`{fs.qualname}` dispatches nested function "
                            f"`{t_fs.qualname}` as a shard worker — nested "
                            "functions are unpicklable and capture enclosing "
                            "state",
                            "hoist the worker to module level; pass captured "
                            "values through ShardPayload",
                        )


@register_rule
class WorkerRngBypass(Rule):
    code = "RL403"
    name = "worker-rng-bypass"
    summary = "worker-reachable code constructs an RNG without a derived seed"
    program = True

    def check(self, ctx: LintContext) -> None:
        return None

    def check_program(self, program: ProgramContext, report: ProgramReporter) -> None:
        index = program.index
        for fid in sorted(program.worker_reachable):
            found = index.function(fid)
            if found is None:
                continue
            ms, fs = found
            for site in fs.rng_sites:
                if site["seeded"]:
                    continue
                if not _is_random_random(ms, site.get("callee", "")):
                    continue
                report.add(
                    ms,
                    site,
                    self.code,
                    f"`{fs.qualname}` is reachable from a shard worker entry "
                    "point and constructs random.Random() without a seed "
                    "derived from the shard",
                    "seed it with derive_seed(base_seed, shard.index) (or "
                    "pass the engine RNG down) so shard results do not "
                    "depend on OS entropy",
                )
