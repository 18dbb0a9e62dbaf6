"""The reference of the benchmark's exact counter gate (``tests/bench_counters.py``).

These tests read JSON only; CI runs the benchmark and the gate itself.
"""

import json

from tests.bench_counters import BENCHMARK, compare, DIGEST, extract, gated_counters, REFERENCE

SPEC = json.loads(BENCHMARK.read_text(encoding="utf-8"))
REF = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_covers_every_workload_and_gated_counter():
    names = gated_counters()
    assert len(names) == len(set(names)) == 25
    assert set(names) <= {metric["name"] for metric in SPEC["per_layer"]}
    assert sorted(REF) == sorted(workload["name"] for workload in SPEC["workloads"])
    for workload, entries in REF.items():
        assert sorted(entries) == sorted(names + [DIGEST]), workload


def test_gate_passes_the_reference_and_names_each_moved_counter():
    out = {
        f"{workload}/trace=1": {
            "metrics": {name: {"value": value} for name, value in entries.items()},
            "diagnostics": {DIGEST: entries[DIGEST]},
        }
        for workload, entries in REF.items()
    }
    out["show_floor/trace=0"] = {"metrics": {"setup_s": {"value": 1.0}}}
    assert compare(REF, extract(out)) == []

    frames = REF["show_floor"]["l2.frames"]
    out["show_floor/trace=1"]["metrics"]["l2.frames"]["value"] = frames + 1
    out["fleet_sweep/trace=1"] = {}
    differences = compare(REF, extract(out))
    assert differences[-1] == f"show_floor l2.frames: {frames} → {frames + 1}"
    assert differences[:-1] == [
        f"fleet_sweep {name}: {REF['fleet_sweep'][name]} → missing"
        for name in sorted(REF["fleet_sweep"])
    ]
