"""The sweep dataclasses are ``__slots__``-trimmed on Python 3.10+: one
sweep at production scale holds millions of outcome rows."""

import sys

import pytest

from repro.analysis.adoption import AdoptionPoint, FleetMix
from repro.analysis.matrix import run_device_matrix
from repro.clients.profiles import ALL_PROFILES, MACOS
from repro.core.testbed import TestbedConfig
from repro.parallel import ShardPayload, ShardSpec


@pytest.mark.skipif(sys.version_info < (3, 10), reason="dataclass slots need 3.10+")
class TestSlots:
    @pytest.mark.parametrize(
        "instance",
        [
            TestbedConfig(),
            FleetMix(devices=((MACOS, 1),)),
            AdoptionPoint("x", 1, 1, 0, 0, 0),
            ShardSpec(index=0, seed=1),
            ShardPayload(None),
        ],
        ids=lambda instance: type(instance).__name__,
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")

    def test_device_outcome_no_instance_dict(self):
        outcome = run_device_matrix(profiles=ALL_PROFILES[:1])[0]
        assert not hasattr(outcome, "__dict__")
