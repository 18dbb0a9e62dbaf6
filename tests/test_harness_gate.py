"""The benchmark harness' regression gate and seed-improvement maths.

Event-less scenarios (``dns_fast_path``) report the explicit marker
``events_per_sec: "skipped"``; the gate must skip non-numeric metrics
(the marker, plus ``null`` from pre-marker BENCH files) explicitly
instead of warning or comparing against a string/``None``/zero.

Quick and full runs use differently-sized scenarios, so the baseline
keeps per-mode sections (``scenarios`` vs ``scenarios_quick``) and the
gate must only ever compare same-mode pairs.
"""

import sys
import warnings

from benchmarks.harness import _baseline_section, _fingerprint, compare, improvement_vs_seed


def _baseline(scenarios, quick_scenarios=None):
    base = {"git_commit": "abc1234", "scenarios": scenarios}
    if quick_scenarios is not None:
        base["scenarios_quick"] = quick_scenarios
    return base


class TestCompareGate:
    def test_null_metrics_skipped(self):
        current = {
            "dns_fast_path": {"events_per_sec": None, "queries_per_sec": 1000.0},
        }
        baseline = _baseline(
            {"dns_fast_path": {"events_per_sec": None, "queries_per_sec": 1000.0}}
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare(current, baseline, tolerance=0.25) == []

    def test_null_current_vs_numeric_baseline_skipped(self):
        current = {"s": {"events_per_sec": None, "queries_per_sec": 500.0}}
        baseline = _baseline({"s": {"events_per_sec": 4000.0, "queries_per_sec": 500.0}})
        assert compare(current, baseline, tolerance=0.25) == []

    def test_skipped_marker_never_gates(self):
        current = {
            "dns_fast_path": {"events_per_sec": "skipped", "queries_per_sec": 1000.0},
        }
        baseline = _baseline(
            {"dns_fast_path": {"events_per_sec": "skipped", "queries_per_sec": 1000.0}}
        )
        assert compare(current, baseline, tolerance=0.25) == []

    def test_skipped_current_vs_numeric_baseline_skipped(self):
        # A scenario can legitimately go event-less across baselines
        # (dns_fast_path predates the marker); strings never compare.
        current = {"s": {"events_per_sec": "skipped", "queries_per_sec": 500.0}}
        baseline = _baseline({"s": {"events_per_sec": 4000.0, "queries_per_sec": 500.0}})
        assert compare(current, baseline, tolerance=0.25) == []

    def test_zero_baseline_cannot_gate(self):
        current = {"s": {"events_per_sec": 10.0, "queries_per_sec": 10.0}}
        baseline = _baseline({"s": {"events_per_sec": 0, "queries_per_sec": 0}})
        assert compare(current, baseline, tolerance=0.25) == []

    def test_real_regression_still_caught(self):
        current = {"s": {"events_per_sec": 100.0, "queries_per_sec": 500.0}}
        baseline = _baseline({"s": {"events_per_sec": 1000.0, "queries_per_sec": 500.0}})
        problems = compare(current, baseline, tolerance=0.25)
        assert len(problems) == 1
        assert "s.events_per_sec" in problems[0]

    def test_no_baseline_is_clean(self):
        assert compare({"s": {"events_per_sec": 1.0, "queries_per_sec": 1.0}}, None, 0.25) == []


class TestModeAwareSections:
    """Quick runs gate against scenarios_quick, full runs against scenarios."""

    BASELINE = {
        "git_commit": "abc1234",
        "scenarios": {"s": {"events_per_sec": 10_000.0, "queries_per_sec": 100.0}},
        "scenarios_quick": {"s": {"events_per_sec": 5_000.0, "queries_per_sec": 60.0}},
    }

    def test_quick_run_ignores_full_numbers(self):
        # 6k would regress the 10k full baseline but clears the 5k quick one.
        current = {"s": {"events_per_sec": 6_000.0, "queries_per_sec": 70.0}}
        assert compare(current, self.BASELINE, tolerance=0.25, quick=True) == []

    def test_quick_regression_caught_in_quick_section(self):
        current = {"s": {"events_per_sec": 3_000.0, "queries_per_sec": 70.0}}
        problems = compare(current, self.BASELINE, tolerance=0.25, quick=True)
        assert len(problems) == 1 and "s.events_per_sec" in problems[0]

    def test_full_run_ignores_quick_numbers(self):
        # 9k clears the full 25% floor; the quick 5k section must not apply.
        current = {"s": {"events_per_sec": 9_000.0, "queries_per_sec": 100.0}}
        assert compare(current, self.BASELINE, tolerance=0.25, quick=False) == []
        regression = {"s": {"events_per_sec": 6_000.0, "queries_per_sec": 100.0}}
        assert len(compare(regression, self.BASELINE, tolerance=0.25, quick=False)) == 1

    def test_missing_quick_section_gates_nothing(self):
        # Pre-sectioned baselines have only full numbers; a quick run
        # must not be measured against them.
        baseline = _baseline({"s": {"events_per_sec": 10_000.0, "queries_per_sec": 100.0}})
        current = {"s": {"events_per_sec": 10.0, "queries_per_sec": 1.0}}
        assert compare(current, baseline, tolerance=0.25, quick=True) == []

    def test_section_names(self):
        assert _baseline_section(quick=False) == "scenarios"
        assert _baseline_section(quick=True) == "scenarios_quick"

    def test_default_mode_is_full(self):
        current = {"s": {"events_per_sec": 6_000.0, "queries_per_sec": 100.0}}
        assert len(compare(current, self.BASELINE, tolerance=0.25)) == 1


class TestFingerprint:
    def test_shape(self):
        fingerprint = _fingerprint()
        assert set(fingerprint) == {"interpreter", "machine"}
        assert fingerprint["interpreter"] == sys.implementation.name

    def test_no_python_minor_version(self):
        # Deliberately coarse: a routine CI interpreter bump (3.11 ->
        # 3.12) must keep gating, so the minor version cannot be part
        # of the comparability key.
        version = f"{sys.version_info[0]}.{sys.version_info[1]}"
        assert version not in _fingerprint().values()


class TestImprovementVsSeed:
    def test_null_metrics_skipped(self):
        current = {"dns_fast_path": {"events_per_sec": None, "queries_per_sec": 2000.0}}
        seed = _baseline(
            {"dns_fast_path": {"events_per_sec": None, "queries_per_sec": 1000.0}}
        )
        factors = improvement_vs_seed(current, seed)
        assert factors == {"dns_fast_path.queries_per_sec": 2.0}

    def test_zero_seed_baseline_skipped(self):
        current = {"s": {"events_per_sec": 10.0, "queries_per_sec": 10.0}}
        seed = _baseline({"s": {"events_per_sec": 0, "queries_per_sec": 5.0}})
        assert improvement_vs_seed(current, seed) == {"s.queries_per_sec": 2.0}

    def test_skipped_marker_has_no_improvement_factor(self):
        current = {"dns_fast_path": {"events_per_sec": "skipped", "queries_per_sec": 2000.0}}
        seed = _baseline(
            {"dns_fast_path": {"events_per_sec": None, "queries_per_sec": 1000.0}}
        )
        factors = improvement_vs_seed(current, seed)
        assert factors == {"dns_fast_path.queries_per_sec": 2.0}
