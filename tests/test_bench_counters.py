"""The reference of the benchmark's exact counter gate (``tests/bench_counters.py``).

These tests read and write JSON only; CI runs the benchmark and the gate on its output.
"""

import json
import sys

from tests.bench_counters import (
    BENCHMARK,
    compare,
    DIGEST,
    extract,
    gated_counters,
    main,
    OBSERVED,
    REFERENCE,
)

SPEC = json.loads(BENCHMARK.read_text(encoding="utf-8"))
REF = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_covers_every_workload_and_gated_counter():
    names = gated_counters()
    assert len(names) == len(set(names)) == 25
    assert set(names) <= {metric["name"] for metric in SPEC["per_layer"]}
    assert sorted(REF) == sorted(workload["name"] for workload in SPEC["workloads"])
    for workload, entries in REF.items():
        assert sorted(entries) == sorted(names + [DIGEST]), workload


def _traced_results(workloads):
    """What ``bench/run.py --trace 1 --out`` writes when ``workloads`` give
    the reference's counters."""
    return {
        f"{workload}/trace=1": {
            "metrics": {name: {"value": value} for name, value in REF[workload].items()},
            "diagnostics": {DIGEST: REF[workload][DIGEST]},
        }
        for workload in workloads
    }


def _gate(tmp_path, monkeypatch, results):
    """Run the gate's command line on ``results``; its exit status and
    the counters it wrote."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.json").write_text(json.dumps(results), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["bench_counters.py", "out.json"])
    status = main()
    return status, json.loads((tmp_path / OBSERVED).read_text(encoding="utf-8"))


def test_gate_passes_the_reference_and_names_each_moved_counter():
    out = _traced_results(REF)
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


def test_a_run_of_one_workload_is_gated_on_that_workload_alone(tmp_path, monkeypatch, capsys):
    others = sorted(set(REF) - {"dns_intervention"})
    out = _traced_results(["dns_intervention"])
    status, written = _gate(tmp_path, monkeypatch, out)
    printed = capsys.readouterr().out
    assert status == 0 and written == REF
    assert printed.splitlines()[:-1] == [f"{workload}: not run" for workload in others]
    assert "missing" not in printed

    calls = REF["dns_intervention"]["resolver.calls"]
    out["dns_intervention/trace=1"]["metrics"]["resolver.calls"]["value"] = calls + 1
    status, written = _gate(tmp_path, monkeypatch, out)
    assert status == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"dns_intervention resolver.calls: {calls} → {calls + 1}"
    )
    assert written["dns_intervention"] == {**REF["dns_intervention"], "resolver.calls": calls + 1}
    assert {workload: written[workload] for workload in others} == {
        workload: REF[workload] for workload in others
    }


def test_a_workload_without_a_result_or_a_file_without_a_traced_run_fails(tmp_path, monkeypatch):
    status, written = _gate(tmp_path, monkeypatch, {"dns_intervention/trace=1": {}})
    assert status == 1 and written["dns_intervention"] == {}
    status, written = _gate(tmp_path, monkeypatch, {"dns_intervention/trace=0": {}})
    assert status == 1 and written == REF
