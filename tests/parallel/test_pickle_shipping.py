"""Everything the process backend ships must pickle, round-trip exact.

These are the prerequisites for process sharding: job descriptions
travel parent → worker and outcome payloads travel back.  The sweep
dataclasses are also ``__slots__``-trimmed on Python 3.10+ (one sweep
at production scale holds millions of outcome rows).
"""

import pickle
import sys

import pytest

from repro.analysis.adoption import AdoptionPoint, FleetMix, windows_refresh_mixes
from repro.analysis.matrix import DeviceOutcome, run_device_matrix
from repro.clients.profiles import ALL_PROFILES, MACOS, WINDOWS_10
from repro.core.testbed import TestbedConfig
from repro.parallel import ShardPayload, ShardResult, ShardSpec
from repro.services.captive import ProbeOutcome


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestPickleRoundTrip:
    def test_testbed_config(self):
        config = TestbedConfig(poisoned_dns=False, use_rpz=True, seed=99)
        assert roundtrip(config) == config

    def test_testbed_config_nat64_prefix_survives(self):
        config = TestbedConfig()
        assert roundtrip(config).nat64_prefix == config.nat64_prefix

    def test_os_profiles(self):
        for profile in ALL_PROFILES:
            assert roundtrip(profile) == profile

    def test_fleet_mix(self):
        mix = FleetMix(devices=((WINDOWS_10, 3), (MACOS, 2)), label="40% refreshed")
        clone = roundtrip(mix)
        assert clone == mix
        assert clone.total == 5

    def test_windows_refresh_mixes(self):
        mixes = windows_refresh_mixes(fleet_size=8, stages=(0.0, 1.0))
        assert roundtrip(mixes) == mixes

    def test_adoption_point(self):
        point = AdoptionPoint(
            label="50% refreshed",
            total=10,
            ipv4_leases=4,
            rfc8925_grants=5,
            intervened=1,
            accurate_v6only=5,
        )
        clone = roundtrip(point)
        assert clone == point
        assert clone.v6only_share == point.v6only_share

    def test_device_outcome(self):
        outcome = DeviceOutcome(
            profile="macOS",
            got_ipv4_lease=False,
            got_option_108=True,
            has_ipv6=True,
            clat_active=True,
            probe=ProbeOutcome.ONLINE,
            browse_landed_on="sc24.supercomputing.org",
            browse_family="ipv6",
            intervened=False,
        )
        clone = roundtrip(outcome)
        assert clone == outcome
        assert clone.row() == outcome.row()

    def test_live_device_outcomes(self):
        outcomes = run_device_matrix(profiles=ALL_PROFILES[:2])
        assert roundtrip(outcomes) == outcomes

    def test_shard_protocol_types(self):
        spec = ShardSpec(index=3, seed=12345, payload=(TestbedConfig(), "x"), label="mix-3")
        assert roundtrip(spec) == spec
        payload = ShardPayload("value", ipc_bytes=7)
        assert roundtrip(payload) == payload
        result = ShardResult(index=3, seed=12345, value=[1, 2], ipc_bytes=7, error=None)
        assert roundtrip(result) == result


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
            ShardResult(index=0, seed=1),
        ],
        ids=lambda instance: type(instance).__name__,
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")

    def test_device_outcome_no_instance_dict(self):
        outcome = run_device_matrix(profiles=ALL_PROFILES[:1])[0]
        assert not hasattr(outcome, "__dict__")
