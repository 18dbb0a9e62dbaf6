"""Fleet-refresh adoption modelling (paper §VII).

"The October 2025 Windows 10 end-of-life deadline provides a rare
opportunity to leverage the Windows 11 refresh cycle as a catalyst for
sunsetting IPv4."

:func:`run_adoption_sweep` simulates a campus fleet at a sequence of
refresh stages: at each stage a fraction of the legacy Windows
population has been replaced with the RFC 8925-capable build, and a
fresh testbed measures, with real clients, how many devices still need
native IPv4, how many hit the intervention, and the accurate IPv6-only
share.  The output is the adoption trajectory the paper's conclusion
argues for.

The ``sweep`` and ``fleet`` commands print the same table in closed
form (:func:`repro.analysis.fleet.run_fleet_adoption_sweep_stats`):
each distinct profile is measured once and folded by count.  This live
path is the oracle the tests hold that fold to.  The two agree while
each stage's IPv4 demand fits the Pi DHCP pool
(:data:`repro.core.testbed.PI_POOL_SIZE`); past it the live testbed
runs dry, the devices that join last get no lease, and this path
counts starved Windows 10 machines as IPv6-only.

Each stage brings up its own testbed and shares no events with the
others: the sweep runs one shard per mix through
:class:`repro.parallel.SweepExecutor`, each seeded by
:func:`repro.parallel.derive_seed` from the config's seed and the
stage's index.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.clients.profiles import LEGACY_IOT, MACOS, OsProfile, WINDOWS_10, WINDOWS_11_RFC8925
from repro.core.metrics import AdoptionFold, CensusFold, SweepStats
from repro.core.testbed import Testbed, TestbedConfig
from repro.parallel import make_shards, ShardSpec, SweepExecutor

__all__ = [
    "FIXED_DEVICES",
    "FleetMix",
    "AdoptionPoint",
    "run_adoption_sweep",
    "run_adoption_sweep_stats",
    "sweep_table",
    "windows_refresh_mixes",
]


@slotted_dataclass(frozen=True)
class FleetMix:
    """Device population for one refresh stage."""

    #: (profile, count) pairs.
    devices: Tuple[Tuple[OsProfile, int], ...]
    label: str = ""

    def __post_init__(self) -> None:
        for profile, count in self.devices:
            if count < 0:
                raise ValueError(f"{profile.name}: device count must be non-negative, got {count}")

    @property
    def total(self) -> int:
        return sum(count for _p, count in self.devices)


@slotted_dataclass()
class AdoptionPoint:
    label: str
    total: int
    ipv4_leases: int
    rfc8925_grants: int
    intervened: int
    accurate_v6only: int

    @property
    def v6only_share(self) -> float:
        return self.accurate_v6only / self.total if self.total else 0.0



#: Devices every refresh stage keeps whatever the fleet size: the two
#: Macs and the legacy IoT box of :func:`windows_refresh_mixes`.
FIXED_DEVICES = 3


def windows_refresh_mixes(
    fleet_size: int = 20, stages: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0)
) -> List[FleetMix]:
    """The §VII scenario: a fixed fleet whose Windows 10 machines are
    progressively replaced by the RFC 8925 Windows 11 build.  A couple
    of Macs and one legacy IoT box ride along, as on any real campus,
    so ``fleet_size`` must be at least :data:`FIXED_DEVICES`."""
    if fleet_size < FIXED_DEVICES:
        raise ValueError(
            f"fleet size must be at least {FIXED_DEVICES} (2 Macs + 1 IoT box), got {fleet_size}"
        )
    mixes = []
    windows_count = fleet_size - FIXED_DEVICES
    for fraction in stages:
        upgraded = round(windows_count * fraction)
        mixes.append(
            FleetMix(
                devices=(
                    (WINDOWS_10, windows_count - upgraded),
                    (WINDOWS_11_RFC8925, upgraded),
                    (MACOS, 2),
                    (LEGACY_IOT, 1),
                ),
                label=f"{int(fraction * 100)}% refreshed",
            )
        )
    return mixes


def _measure_mix(spec: ShardSpec) -> AdoptionPoint:
    """Worker: one refresh stage on one fresh testbed.

    Aggregation is a streaming fold (:class:`AdoptionFold` +
    :class:`CensusFold`): each client contributes its counts and no
    census row or intermediate list is retained.  Flow-dependent flags
    (census classification) fold after the whole stage has browsed.
    """
    mix, config = spec.payload
    testbed = Testbed(replace(config, seed=spec.seed))
    fold = AdoptionFold()
    census = CensusFold()
    index = 0
    for profile, count in mix.devices:
        for _ in range(count):
            client = testbed.add_client(profile, f"dev-{index}")
            index += 1
            outcome = client.fetch("sc24.supercomputing.org")
            if outcome.landed_on == "ip6.me":
                fold.intervened += 1
    for client in testbed.clients:
        host = client.host
        has_v4_lease = host.ipv4_config is not None
        granted_v6only = host.v6only_wait is not None
        cls = census.observe_flags(
            has_v4_lease,
            granted_v6only,
            bool(host.ipv6_global_addresses()),
            host.iface.tx_ipv4_unicast > 0,
            host.iface.tx_ipv6_unicast > 0,
        )
        fold.add_device(
            has_v4_lease,
            granted_v6only,
            intervened=False,  # folded per-fetch above
            counts_v6only=cls.counts_as_ipv6_only,
        )
    return AdoptionPoint(
        label=mix.label,
        total=mix.total,
        ipv4_leases=fold.ipv4_leases,
        rfc8925_grants=fold.rfc8925_grants,
        intervened=fold.intervened,
        accurate_v6only=census.accurate_ipv6_only_count(),
    )


def run_adoption_sweep_stats(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
) -> Tuple[List[AdoptionPoint], SweepStats]:
    """Measure each stage on a fresh testbed; also return sweep stats.

    One shard per mix, run in mix order.
    """
    config = config or TestbedConfig()
    specs = make_shards([(mix, config) for mix in mixes], base_seed=config.seed)
    executor = SweepExecutor()
    points = executor.map(_measure_mix, specs)
    return points, executor.last_stats


def run_adoption_sweep(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
) -> List[AdoptionPoint]:
    """Measure each stage on a fresh testbed with live clients."""
    points, _stats = run_adoption_sweep_stats(mixes, config)
    return points


def sweep_table(points: Sequence[AdoptionPoint]) -> str:
    lines = [
        f"{'stage':16s} {'fleet':>5s} {'v4 leases':>9s} {'opt108':>7s} "
        f"{'intervened':>10s} {'v6-only share':>13s}"
    ]
    for p in points:
        lines.append(
            f"{p.label:16s} {p.total:>5d} {p.ipv4_leases:>9d} {p.rfc8925_grants:>7d} "
            f"{p.intervened:>10d} {p.v6only_share:>12.0%}"
        )
    return "\n".join(lines)
