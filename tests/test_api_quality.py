"""API quality gates: every public module documented, ``__all__``
entries real, package imports clean, and the simulator deterministic at
the whole-testbed level."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.net",
    "repro.dns",
    "repro.dhcp",
    "repro.nd",
    "repro.xlat",
    "repro.sim",
    "repro.clients",
    "repro.services",
    "repro.core",
    "repro.analysis",
]


def _iter_modules():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                yield importlib.import_module(f"{package_name}.{info.name}")


ALL_MODULES = list(_iter_modules())


class TestDocumentation:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_has_docstring(self, module):
        if module.__name__.endswith("__main__"):
            pytest.skip("CLI entry point")
        assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_all_entries_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_importable_standalone(self, package_name):
        assert importlib.import_module(package_name)

    def test_public_classes_documented(self):
        undocumented = []
        for module in ALL_MODULES:
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if isinstance(obj, type) and obj.__module__.startswith("repro"):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public classes: {undocumented}"


def _capture(testbed):
    """Every captured frame with its time, place and direction."""
    return [(e.time, e.node, e.port, e.direction, e.frame) for e in testbed.trace.entries]


class TestDeterminism:
    def test_whole_testbed_replay_is_bytewise_identical(self):
        """Two runs of the same seeded scenario produce identical packet
        captures — the determinism claim of DESIGN.md, verified at the
        strongest level."""
        from repro.clients.profiles import MACOS, NINTENDO_SWITCH
        from repro.core.testbed import TestbedConfig, build_testbed

        def run():
            testbed = build_testbed(TestbedConfig(seed=99, capture_traffic=True))
            testbed.add_client(MACOS, "mac").fetch("sc24.supercomputing.org")
            testbed.add_client(NINTENDO_SWITCH, "nsw").fetch("ip6.me")
            return _capture(testbed)

        assert run() == run()

    def test_different_seeds_differ(self):
        from repro.clients.profiles import MACOS
        from repro.core.testbed import TestbedConfig, build_testbed

        def run(seed):
            testbed = build_testbed(TestbedConfig(seed=seed, capture_traffic=True))
            testbed.add_client(MACOS, "mac").fetch("sc24.supercomputing.org")
            return _capture(testbed)

        # TCP initial sequence numbers come from the seeded RNG.
        assert run(1) != run(2)
