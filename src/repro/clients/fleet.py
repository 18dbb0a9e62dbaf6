"""Per-profile outcome calibration for fleet-scale sweeps.

The key observation behind the million-host sweep: in an adoption
sweep every device of one OS profile, brought onto the same testbed
configuration, exhibits the same observable outcome — the simulation is
deterministic and clients only talk to the infrastructure, never to
each other (the same independence that lets the device matrix host
every profile on one testbed).  So the per-device cost of a fleet sweep collapses to:

1. **calibrate** — run ONE live packet-level client per *distinct*
   profile on a real :class:`repro.core.testbed.Testbed` and record its
   outcome as a compact :class:`ProfileOutcome` (this module);
2. **fold** — add each stage's ``count`` devices of a profile to the
   streaming :class:`repro.core.metrics.AdoptionFold` in one step
   (:meth:`~repro.core.metrics.AdoptionFold.add_bulk`, driven by
   :func:`repro.analysis.fleet.run_fleet_adoption_sweep_stats`).

Step 1 keeps full protocol fidelity (DHCP option 108, RA/RDNSS, DNS64,
the poisoned resolver, NAT64 — all real simulated frames); step 2 is
integer arithmetic, exact at any device count.  :func:`outcome_tables`
serves the older columnar population path instead
(:func:`repro.analysis.fleet.run_fleet_population_stats`), which
broadcasts the outcomes over per-device columns with ``bytes.translate``
(:meth:`repro.sim.fleet.FleetState.apply_outcomes`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro._compat import slotted_dataclass
from repro.clients.profiles import OsProfile
from repro.core.metrics import classify_client, ClientClass
from repro.net.addresses import IPv6Address, is_nat64_synthesized
from repro.sim import fleet as fl

if TYPE_CHECKING:  # import cycle guard: repro.core.testbed imports repro.clients
    from repro.core.testbed import TestbedConfig

__all__ = [
    "ProfileOutcome",
    "CENSUS_CODES",
    "CLASS_FOR_CODE",
    "calibrate_profiles",
    "outcome_tables",
]

#: :class:`ClientClass` → census column code.  0 is reserved for
#: UNKNOWN so the translate-table default (0) reads as "unclassified"
#: instead of aliasing a real class.
CENSUS_CODES: Dict[ClientClass, int] = {
    ClientClass.UNKNOWN: 0,
    ClientClass.IPV4_ONLY: 1,
    ClientClass.DUAL_STACK: 2,
    ClientClass.IPV6_ONLY_NATIVE: 3,
    ClientClass.IPV6_ONLY_RFC8925: 4,
}

CLASS_FOR_CODE: Dict[int, ClientClass] = {code: cls for cls, code in CENSUS_CODES.items()}


@slotted_dataclass(frozen=True)
class ProfileOutcome:
    """One profile's calibrated, observable outcome on one testbed config.

    Tiny: the whole per-million-devices behavioural state of a sweep is
    one of these per distinct profile.
    """

    name: str
    has_v4_lease: bool
    granted_v6only: bool
    has_v6_address: bool
    clat_active: bool
    sent_v4_flows: bool
    sent_v6_flows: bool
    browse_ok: bool
    browse_family: Optional[str]
    browse_landed_on: Optional[str]
    intervened: bool
    dns_code: int
    census_class: ClientClass

    @property
    def addressing_code(self) -> int:
        if self.has_v4_lease and self.has_v6_address:
            return fl.ADDR_DUAL
        if self.has_v4_lease:
            return fl.ADDR_V4_ONLY
        if self.has_v6_address:
            return fl.ADDR_V6_ONLY
        return fl.ADDR_NONE

    @property
    def dhcp4_code(self) -> int:
        if self.granted_v6only:
            return fl.DHCP4_V6ONLY_GRANT
        if self.has_v4_lease:
            return fl.DHCP4_LEASED
        return fl.DHCP4_NO_LEASE

    @property
    def ra6_code(self) -> int:
        return fl.RA6_SLAAC if self.has_v6_address else fl.RA6_NONE

    @property
    def he_code(self) -> int:
        if not self.browse_ok:
            return fl.HE_FAILED
        return fl.HE_OK_V6 if self.browse_family == "ipv6" else fl.HE_OK_V4

    @property
    def census_code(self) -> int:
        return CENSUS_CODES[self.census_class]

    def column_code(self, column: str) -> int:
        codes: Dict[str, int] = {
            "addressing": self.addressing_code,
            "dhcp4": self.dhcp4_code,
            "ra6": self.ra6_code,
            "dns": self.dns_code,
            "he": self.he_code,
            "census": self.census_code,
        }
        return codes[column]


def _dns_code(
    intervened: bool,
    browse_ok: bool,
    browse_family: Optional[str],
    nat64_synth: bool,
) -> int:
    if intervened:
        return fl.DNS_POISON_REDIRECT
    if not browse_ok:
        return fl.DNS_FAILED
    if browse_family == "ipv6":
        return fl.DNS_DNS64_SYNTH if nat64_synth else fl.DNS_AAAA_ANSWER
    return fl.DNS_A_ANSWER


def calibrate_profiles(
    profiles: Sequence[OsProfile],
    config: Optional["TestbedConfig"] = None,
    target_site: str = "sc24.supercomputing.org",
) -> Tuple[ProfileOutcome, ...]:
    """Measure each distinct profile once, with a live client, in order.

    One fresh testbed, built from ``config`` (its engine seed included),
    hosts one client per profile — exactly the §V device-matrix shape,
    whose rows are already proven independent of cohabitation.
    """
    from repro.core.testbed import Testbed, TestbedConfig

    config = config or TestbedConfig()
    testbed = Testbed(config)
    outcomes = []
    for index, profile in enumerate(profiles):
        client = testbed.add_client(profile, f"calib-{index}")
        browse = client.fetch(target_site)
        host = client.host
        has_v4_lease = host.ipv4_config is not None
        granted_v6only = host.v6only_wait is not None
        has_v6_address = bool(host.ipv6_global_addresses())
        sent_v4 = host.iface.tx_ipv4_unicast > 0
        sent_v6 = host.iface.tx_ipv6_unicast > 0
        intervened = browse.landed_on == "ip6.me" and target_site != "ip6.me"
        nat64_synth = isinstance(browse.address, IPv6Address) and is_nat64_synthesized(
            browse.address, config.nat64_prefix
        )
        outcomes.append(
            ProfileOutcome(
                name=profile.name,
                has_v4_lease=has_v4_lease,
                granted_v6only=granted_v6only,
                has_v6_address=has_v6_address,
                clat_active=host.clat is not None and host.clat.enabled,
                sent_v4_flows=sent_v4,
                sent_v6_flows=sent_v6,
                browse_ok=browse.ok,
                browse_family=browse.family,
                browse_landed_on=browse.landed_on,
                intervened=intervened,
                dns_code=_dns_code(intervened, browse.ok, browse.family, nat64_synth),
                census_class=classify_client(
                    has_v4_lease, granted_v6only, has_v6_address, sent_v4, sent_v6
                ),
            )
        )
    return tuple(outcomes)


def outcome_tables(outcomes: Sequence[ProfileOutcome]) -> Dict[str, bytes]:
    """Build the 256-byte translate tables the columnar state consumes.

    Profile code ``i`` is position ``i`` in ``outcomes`` — the caller
    must use the same ordering when filling the profile column.
    """
    if len(outcomes) > 256:
        raise ValueError(f"at most 256 distinct profiles per fleet, got {len(outcomes)}")
    tables: Dict[str, bytes] = {}
    for column in fl.OUTCOME_COLUMNS:
        tables[column] = fl.make_translation_table(
            {i: outcome.column_code(column) for i, outcome in enumerate(outcomes)}
        )
    return tables
