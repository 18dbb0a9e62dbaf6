"""Tests for the benchmark itself, at tiny sizes: ``pytest bench/``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "show_floor": dict(arrivals=20, present=8),
    "dns_intervention": dict(hosts=50, hot=8, chunk=200, life=1000, traced_queries=600),
    "adoption_sweep": dict(parallel=1, serial=1, traced=1),
    "fleet_sweep": dict(parallel=1, serial=1, traced=1),
}


def tiny(name, seed=1):
    return workloads.make(name, seed, **TINY[name])


def traced_unit(workload, traced):
    """One traced-pass unit: (result, counters), traced or not."""
    with layertrace.Collector() as collector:
        tracer = layertrace.LayerTracer() if traced else None
        result = workloads.UnitResult(tracer=tracer)
        if tracer is None:
            workload.traced_unit(result)
        else:
            with tracer:
                workload.traced_unit(result)
        return result, collector.counters()


@pytest.mark.parametrize("name", ["show_floor", "dns_intervention", "adoption_sweep"])
def test_traced_and_untraced_runs_agree(name):
    workload = tiny(name)
    plain, plain_counters = traced_unit(workload, traced=False)
    traced, traced_counters = traced_unit(workload, traced=True)
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted > 0
    assert plain.digest.hexdigest() == traced.digest.hexdigest()
    assert plain_counters == traced_counters


@pytest.mark.parametrize("name", ["show_floor", "dns_intervention", "fleet_sweep"])
def test_layer_shares_sum_to_one(name):
    metrics, diagnostics, attempted, failed = run.trace(tiny(name), seconds=0)
    shares = [metrics[f"{layer}.share"] for layer in layertrace.LAYER_NAMES]
    assert failed == 0 and attempted > 0
    assert all(share >= 0 for share in shares)
    assert sum(shares) == pytest.approx(1.0, abs=0.01)
    assert metrics["trace.missing"] == 0, diagnostics["missing"]
    assert set(metrics) == set(run._per_layer_units())


def test_same_seed_gives_identical_counters_and_digests():
    for name in ("show_floor", "dns_intervention"):
        first, first_counters = traced_unit(tiny(name, seed=7), traced=True)
        again, again_counters = traced_unit(tiny(name, seed=7), traced=True)
        assert first.digest.hexdigest() == again.digest.hexdigest()
        assert first_counters == again_counters


def test_other_seed_changes_arrival_order_without_errors():
    one, two = workloads.ShowFloor(1, arrivals=100), workloads.ShowFloor(2, arrivals=100)
    order_one = [p.name for p in one.arrival_profiles(0)]
    order_two = [p.name for p in two.arrival_profiles(0)]
    assert order_one != order_two
    assert sorted(order_one) == sorted(order_two)  # whole blocks: same mix, new order
    result = workloads.UnitResult()
    tiny("show_floor", seed=2).unit(0, result)
    assert result.failed == 0 and result.attempted == 20

    dns_one, dns_two = tiny("dns_intervention", seed=1), tiny("dns_intervention", seed=2)
    assert dns_one.corpus("chunk0", 50) != dns_two.corpus("chunk0", 50)
    result = workloads.UnitResult()
    dns_two.unit(0, result)
    assert result.failed == 0 and result.attempted == 200


def test_missing_entry_points_are_reported_not_raised():
    from repro.sim import iface
    from repro.sim.engine import EventEngine

    run_until = EventEngine.__dict__["run_until"]
    decode = iface.decode_ipv4_cached
    layers = (
        ("engine", (
            "repro.sim.engine:EventEngine.no_such_method",
            "repro.no_such_module:anything",
            "repro.sim.engine:EventEngine.run_until",
        )),
        ("codec", ("repro.net.lazy:decode_ipv4_cached",)),
    )
    tracer = layertrace.LayerTracer(layers)
    with tracer:
        assert EventEngine.__dict__["run_until"] is not run_until
        assert iface.decode_ipv4_cached is not decode  # a from-import copy
        result = workloads.UnitResult(tracer=tracer)
        tiny("show_floor").unit(0, result)
    assert result.failed == 0
    assert tracer.missing == [
        "repro.sim.engine:EventEngine.no_such_method",
        "repro.no_such_module:anything",
    ]
    assert tracer.calls[0] > 0 and tracer.calls[1] > 0
    assert EventEngine.__dict__["run_until"] is run_until
    assert iface.decode_ipv4_cached is decode
    assert "no_such_method" not in vars(EventEngine)


def test_metrics_and_run_length_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert declared["run_seconds"] == run.RUN_SECONDS
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run._per_layer_units()


def test_result_line_merges_modes_under_declared_names():
    untraced = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
    traced = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"engine.calls": {"value": 9, "unit": "count"}}}
    final = run.merge([("", untraced), ("", traced)])
    assert final == {"correct": True, "attempted": 5, "failed": 0,
                     "metrics": {**untraced["metrics"], **traced["metrics"]}}
    assert set(run.merge([("a/", untraced), ("b/", untraced)])["metrics"]) == {"a/setup_s", "b/setup_s"}
    lost = run.merge([("", untraced), ("", {})])
    assert lost["correct"] is False and lost["failed"] == 1 and lost["attempted"] == 4


def test_checks_reject_wrong_answers():
    from repro.dns.rdata import RRType

    workload = tiny("dns_intervention")
    servers = workloads._Servers(workload.hosts)
    query = next(
        q for q in workload.corpus("probe", 200) if q[1] in workload._address and q[2] == RRType.A
    )
    _server, name, qtype, wire = query
    poisoned = servers.servers[workloads.POISONER].handle_query(wire)
    real = servers.servers[workloads.DNS64].handle_query(wire)
    assert workload.check((workloads.POISONER, name, qtype, wire), poisoned) is None
    assert workload.check((workloads.DNS64, name, qtype, wire), real) is None
    assert workload.check((workloads.DNS64, name, qtype, wire), poisoned) is not None

    sweep = tiny("adoption_sweep")
    sweep.golden += "extra line\n"
    result = workloads.UnitResult()
    assert sweep.run(1, result) is False
    assert result.failed == 1


def test_blocks_rescale_timings_by_host_speed():
    result = workloads.UnitResult()
    with result.block():
        result.ops_s.append(1.0)
        result.phase("join", 2.0)
    scale = result.ops_s[0]
    assert scale > 0 and result.phases["join"] == [2.0 * scale]
    assert len(result.rates) == 1
    with result.block():
        result.phase("serial", 1.0)
    assert len(result.rates) == 1  # a block without gated operations has no rate
    assert workloads.host_scale(workloads.REFERENCE_S, workloads.REFERENCE_S) == 1.0
