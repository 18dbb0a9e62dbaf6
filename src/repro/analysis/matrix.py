"""The device-outcome matrix (paper §V, prose results).

For every OS profile, bring a fresh client onto the testbed and record
the observable outcomes the paper reports per device: did it get IPv4?
did option 108 fire?  where does a browse to an ordinary site land?
does the OS connectivity probe say "online"?

Run with the intervention on and off to see exactly which devices the
poisoned DNS touches — the paper's central claim is that the set is
"IPv4-only clients, and nothing else".

The matrix is one shard: one fresh testbed, seeded
``derive_seed(config.seed, 0)``, hosts one client per profile in
profile order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro._compat import slotted_dataclass
from repro.clients.profiles import ALL_PROFILES, OsProfile
from repro.core.testbed import Testbed, TestbedConfig
from repro.parallel import make_shards, ShardSpec, SweepExecutor
from repro.services.captive import connectivity_probe, ProbeOutcome

__all__ = [
    "DeviceOutcome",
    "run_device_matrix",
    "matrix_table",
]


@slotted_dataclass()
class DeviceOutcome:
    profile: str
    got_ipv4_lease: bool
    got_option_108: bool
    has_ipv6: bool
    clat_active: bool
    probe: ProbeOutcome
    browse_landed_on: Optional[str]
    browse_family: Optional[str]
    intervened: bool  # browse to a normal site got hijacked to ip6.me

    def row(self) -> str:
        return (
            f"{self.profile:28s} v4={str(self.got_ipv4_lease):5s} "
            f"opt108={str(self.got_option_108):5s} v6={str(self.has_ipv6):5s} "
            f"clat={str(self.clat_active):5s} probe={self.probe.value:7s} "
            f"browse→{self.browse_landed_on or 'FAIL':24s} ({self.browse_family or '-'}) "
            f"intervened={self.intervened}"
        )


def _measure_one(
    testbed: Testbed, index: int, profile: OsProfile, target_site: str
) -> DeviceOutcome:
    """Bring one client up and record its outcome row."""
    client = testbed.add_client(profile, f"dev-{index}-{profile.name}")
    probe = connectivity_probe(client)
    browse = client.fetch(target_site)
    return DeviceOutcome(
        profile=profile.name,
        got_ipv4_lease=client.host.ipv4_config is not None,
        got_option_108=client.host.v6only_wait is not None,
        has_ipv6=bool(client.host.ipv6_global_addresses()),
        clat_active=client.host.clat is not None and client.host.clat.enabled,
        probe=probe.outcome,
        browse_landed_on=browse.landed_on,
        browse_family=browse.family,
        intervened=browse.landed_on == "ip6.me" and target_site != "ip6.me",
    )


def _measure_profiles(spec: ShardSpec) -> List[DeviceOutcome]:
    """Worker: a fresh testbed, one client per profile, one row each.

    The rows are bounded by the profile catalogue (a few dozen), never
    by fleet size; fleet-bounded aggregation goes through
    :mod:`repro.analysis.fleet`.
    """
    config, profiles, target_site = spec.payload
    testbed = Testbed(replace(config, seed=spec.seed))
    return [
        _measure_one(testbed, index, profile, target_site)
        for index, profile in enumerate(profiles)
    ]


def run_device_matrix(
    config: Optional[TestbedConfig] = None,
    profiles: Sequence[OsProfile] = ALL_PROFILES,
    target_site: str = "sc24.supercomputing.org",
) -> List[DeviceOutcome]:
    """One client per profile on one testbed, full outcome row each."""
    config = config or TestbedConfig()
    specs = make_shards([(config, tuple(profiles), target_site)], base_seed=config.seed)
    (outcomes,) = SweepExecutor().map(_measure_profiles, specs)
    return outcomes


def matrix_table(outcomes: Sequence[DeviceOutcome]) -> str:
    return "\n".join(o.row() for o in outcomes)
