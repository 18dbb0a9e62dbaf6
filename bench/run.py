"""Benchmark of record for the simulated IPv6-mostly testbed.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--out PATH]

Each (workload, mode) runs in its own child process, so the peak RSS
it reports is that workload's alone.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` is the traced
pass that reports per-layer self time and counters.  Without
``--trace`` both run.  ``--seconds`` defaults to :data:`RUN_SECONDS`.
Every metric is printed by name with its unit; the last line of stdout
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Its metric names are those of BENCHMARK.json; with more than one
workload they are prefixed ``workload/``.  The exit code is 0 only if
every output was checked and correct.  See bench/README.md for the
workloads, metrics and layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Measuring time per workload and mode; ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 20

WORKLOADS = ("show_floor", "adoption_sweep", "dns_intervention", "fleet_sweep")

E2E_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

COUNTER_UNITS = {
    "engine.events": "count",
    "l2.frames": "count",
    "control.dhcp_acks": "count",
    "control.option108_grants": "count",
    "resolver.queries": "count",
    "resolver.cache_hit_ratio": "ratio",
    "resolver.poison_answers": "count",
    "resolver.dns64_synthesized": "count",
    "xlat.nat64_translations": "count",
    "parallel.serial_s_p50": "s",
    "parallel.speedup": "x",
    "parallel.efficiency": "ratio",
    "trace.overhead_ratio": "x",
    "trace.missing": "count",
}


def _percentile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


# ---------------------------------------------------------------------------
# child: one workload, one mode, in this process
# ---------------------------------------------------------------------------


def _time_left(start: float, last: float, seconds: float) -> bool:
    """Whether another unit as long as the last one ends within ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - last) <= seconds


#: Set-up samples taken before the warm-up; one more precedes every unit,
#: so the samples spread over the run like the operations do.
SETUP_FIRST = 3


def _setup_sample(workload: Any) -> float:
    """One set-up sample, in reference seconds like every timing."""
    from workloads import host_scale, probe

    before = probe()
    seconds = workload.setup_sample()
    return seconds * host_scale(before, probe())


def measure(workload: Any, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any], int, int]:
    """The untraced run: set-up samples, one warm-up unit, then units
    for ``seconds``.  Returns metrics, diagnostics, attempted and failed."""
    from workloads import UnitResult

    setup = [_setup_sample(workload) for _ in range(SETUP_FIRST)]
    warm = UnitResult()
    workload.unit(0, warm)
    total = UnitResult()
    units = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append(_setup_sample(workload))
        units += 1
        unit = UnitResult()
        workload.unit(units, unit)
        total.merge(unit)
        if not _time_left(start, began, seconds):
            break
    ops = total.ops_s
    metrics = {
        "setup_s": _median(setup),
        "op_ms_p50": _median(ops) * 1e3,
        "ops_per_s": _median(total.rates),
        "peak_rss_mb": _peak_rss_mb(),
    }
    diagnostics: Dict[str, Any] = {
        "op_ms_p90": _percentile(ops, 90) * 1e3,
        "op_ms_p99": _percentile(ops, 99) * 1e3,
        "ops": len(ops),
        "blocks": len(total.rates),
        "units": units,
        "setup_samples": len(setup),
        "warmup_digest": warm.digest.hexdigest(),
    }
    for name, values in sorted(total.phases.items()):
        diagnostics[f"{name}_ms_p50"] = _median(values) * 1e3
        diagnostics[f"{name}_ms_p90"] = _percentile(values, 90) * 1e3
        diagnostics[f"{name}_samples"] = len(values)
    return metrics, diagnostics, warm.attempted + total.attempted, warm.failed + total.failed


def trace(workload: Any, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any], int, int]:
    """The traced pass: pairs of an untraced and a traced run of the
    same reduced unit, for ``seconds``.  Counters and outputs must be
    identical across every run of the unit."""
    from layertrace import Collector, LAYER_NAMES, LayerTracer
    from workloads import UnitResult

    handle_query = "repro.dns.server:DnsServer.handle_query"
    plain_s: List[float] = []
    traced_s: List[float] = []
    reports: List[Dict[str, Tuple[int, float]]] = []
    serial: List[float] = []
    parallel: List[float] = []
    missing: List[str] = []
    with Collector() as collector:
        warm = UnitResult()
        workload.traced_unit(warm)
        collector.clear()
        attempted, failed = warm.attempted, warm.failed
        # (untraced counters, output digest) of the first pair, and the
        # traced counters, which add resolver.queries.
        expected: Optional[Tuple[Dict[str, float], str]] = None
        first_counters: Dict[str, float] = {}
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            plain = UnitResult()
            workload.traced_unit(plain)
            plain_counters = collector.counters()
            collector.clear()
            tracer = LayerTracer()
            traced = UnitResult(tracer=tracer)
            with tracer:
                workload.traced_unit(traced)
            counters = collector.counters(tracer.entry_calls.get(handle_query, 0))
            collector.clear()
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            missing += tracer.missing

            observed = (plain_counters, plain.digest.hexdigest())
            traced_observed = ({k: counters[k] for k in plain_counters}, traced.digest.hexdigest())
            if expected is None:
                expected, first_counters = observed, counters
            if observed != expected or traced_observed != expected:
                failed += 1
                print(
                    f"bench: FAILED traced and untraced runs differ: untraced {observed}, "
                    f"traced {traced_observed}, first run {expected}",
                    file=sys.stderr,
                )
            plain_s.append(plain.region_s)
            traced_s.append(traced.region_s)
            reports.append(tracer.report(traced.region_s, traced.attempted))
            if hasattr(workload, "parallel_unit"):
                serial += plain.phases.get("serial", [])
                par = UnitResult()
                workload.parallel_unit(par)
                collector.clear()
                parallel += par.ops_s
                attempted += par.attempted
                failed += par.failed
            if not _time_left(start, began, seconds):
                break
        missing += collector.missing

    metrics: Dict[str, float] = {}
    total_s = sum(traced_s)
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = reports[0][layer][0]
        metrics[f"{layer}.self_s"] = _median([report[layer][1] for report in reports])
        metrics[f"{layer}.share"] = sum(report[layer][1] for report in reports) / total_s
    metrics.update(first_counters)
    serial_p50 = _median(serial)
    speedup = serial_p50 / _median(parallel) if parallel else 0.0
    metrics["parallel.serial_s_p50"] = serial_p50
    metrics["parallel.speedup"] = speedup
    metrics["parallel.efficiency"] = speedup / workload.jobs if parallel else 0.0
    metrics["trace.overhead_ratio"] = _median(traced_s) / _median(plain_s)
    metrics["trace.missing"] = len(set(missing))
    diagnostics = {
        "pairs": len(reports),
        "share_sum": sum(metrics[f"{layer}.share"] for layer in LAYER_NAMES),
        "missing": sorted(set(missing)),
        "traced_digest": expected[1] if expected else "",
        "parallel_samples": len(parallel),
    }
    return metrics, diagnostics, attempted, failed


def run_child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError:
        print(f"bench: cannot import repro from {SRC}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"bench: repro resolved to {repro.__file__}, not under {SRC}", file=sys.stderr)
        return 2
    import workloads

    (name,) = args.workload
    workload = workloads.make(name, args.seed)
    if args.trace:
        metrics, diagnostics, attempted, failed = trace(workload, args.seconds)
        units = _per_layer_units()
    else:
        metrics, diagnostics, attempted, failed = measure(workload, args.seconds)
        units = E2E_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "diagnostics": diagnostics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _per_layer_units() -> Dict[str, str]:
    from layertrace import LAYER_NAMES

    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
    units.update(COUNTER_UNITS)
    return units


# ---------------------------------------------------------------------------
# parent: one child per (workload, mode)
# ---------------------------------------------------------------------------


def spawn(workload: str, trace_mode: int, args: argparse.Namespace) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace_mode),
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(170, 4 * args.seconds),
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} trace={trace_mode} timed out", file=sys.stderr)
        return {}
    lines = child.stdout.splitlines()
    try:
        return json.loads(lines[-1]) if child.returncode in (0, 1) and lines else {}
    except json.JSONDecodeError:
        return {}


def merge(results: Sequence[Tuple[str, Dict[str, Any]]]) -> Dict[str, Any]:
    """One result line from ``(prefix, child result)`` pairs.  A child
    that gave no result counts as one failed operation."""
    final: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for prefix, result in results:
        if not result:
            final["attempted"] += 1
            final["failed"] += 1
            continue
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update(
            (prefix + metric, entry) for metric, entry in result["metrics"].items()
        )
    final["correct"] = final["correct"] and final["failed"] == 0
    return final


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=f"measuring time per workload and mode (default: {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: traced pass only (default: both)")
    parser.add_argument("--out", type=Path, help="also write every result, with diagnostics, here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.child:
        return run_child(args)

    names = args.workload or list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        for mode in modes:
            key = f"{name}/trace={mode}"
            result = spawn(name, mode, args)
            results[key] = result
            if not result:
                print(f"{key}: no result", flush=True)
                continue
            print(f"{key}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:28s} {entry['value']:>14.6g} {entry['unit']}")
            for metric, value in result["diagnostics"].items():
                shown = f"{value:>14.6g}" if isinstance(value, float) else value
                print(f"  ({metric}) {shown}")
            sys.stdout.flush()
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    # The two modes' metric names do not overlap, so one workload's
    # result line carries the names BENCHMARK.json declares.
    prefix = "{}/" if len(names) > 1 else ""
    final = merge([(prefix.format(name), results[f"{name}/trace={mode}"])
                   for name in names for mode in modes])
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
