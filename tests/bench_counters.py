"""Exact gate on the benchmark of record's traced counters.

    python3 bench/run.py --seconds 2 --out bench-out.json
    python3 tests/bench_counters.py bench-out.json

The traced pass counts the paper's outcomes (option-108 grants, poisoned
A answers, DNS64-synthesized AAAA answers) and the work behind them.
Those counters and the traced output digest come from the first traced
pair, so they depend on the seed alone, not on the host or ``--seconds``.
This compares the workloads the results file holds a traced run of, so a
run of one workload (``bench/run.py --workload dns_intervention --trace 1``)
is gated on that workload alone and the others are named as not run.  It
prints one ``workload metric: reference → observed`` line per entry that
differs from ``tests/golden/bench_counters.json`` and exits 1 if any does,
or if no workload ran traced; a workload whose run gave no result differs
in every entry.  It always writes ``bench-counters.json``: the observed
entries, and the reference's for the workloads not run.  A change meant
to move a counter copies that file over the reference and says why in
CHANGES.md.  Timings are not gated here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = ROOT / "tests" / "golden" / "bench_counters.json"
OBSERVED = Path("bench-counters.json")

#: Gated beside every layer's ``.calls``, as BENCHMARK.json names them.
OUTCOME_COUNTERS = (
    "engine.events",
    "l2.frames",
    "control.dhcp_acks",
    "control.option108_grants",
    "resolver.queries",
    "resolver.cache_hit_ratio",
    "resolver.poison_answers",
    "resolver.dns64_synthesized",
    "xlat.nat64_translations",
    "trace.missing",
)
DIGEST = "traced_digest"

Counters = Dict[str, Dict[str, Any]]


def gated_counters() -> List[str]:
    """Each ``<layer>.calls`` BENCHMARK.json declares, then the outcome counters."""
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    calls = [metric["name"] for metric in declared if metric["name"].endswith(".calls")]
    return calls + list(OUTCOME_COUNTERS)


def extract(results: Dict[str, Any]) -> Counters:
    """``{workload: {name: value}}`` from the traced results that
    ``bench/run.py --out`` wrote; a child that gave no result maps to ``{}``."""
    names = gated_counters()
    observed: Counters = {}
    for key, result in sorted(results.items()):
        workload, _, mode = key.partition("/")
        if mode != "trace=1":
            continue
        metrics = result.get("metrics", {})
        observed[workload] = {name: metrics[name]["value"] for name in names if name in metrics}
        if result:
            observed[workload][DIGEST] = result["diagnostics"][DIGEST]
    return observed


def compare(reference: Counters, observed: Counters) -> List[str]:
    """One ``workload metric: reference → observed`` line per difference,
    over the observed workloads."""
    lines = []
    for workload in sorted(observed):
        expected = reference.get(workload, {})
        got = observed[workload]
        for name in sorted(set(expected) | set(got)):
            want, have = expected.get(name, "missing"), got.get(name, "missing")
            if want != have:
                lines.append(f"{workload} {name}: {want} → {have}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print("usage: python3 tests/bench_counters.py BENCH_RUN_OUT.json", file=sys.stderr)
        return 2
    observed = extract(json.loads(Path(args[0]).read_text(encoding="utf-8")))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    merged = {**reference, **observed}
    OBSERVED.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not observed:
        print(f"bench counters: {args[0]} holds no traced workload", file=sys.stderr)
        return 1
    for workload in sorted(set(reference) - set(observed)):
        print(f"{workload}: not run")
    differences = compare(reference, observed)
    for line in differences:
        print(line)
    if differences:
        print(
            f"bench counters: {len(differences)} entries differ; if the change means to "
            f"move them, copy {OBSERVED} over {REFERENCE.relative_to(ROOT)} and say why "
            "in CHANGES.md",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench counters: every entry of {', '.join(sorted(observed))} matches "
        f"{REFERENCE.relative_to(ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
