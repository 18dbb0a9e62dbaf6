"""Client-side RA processing and SLAAC (stateless address
autoconfiguration, RFC 4862 flavour).

:class:`SlaacState` accumulates what a host learns from RAs on one
interface: on-link prefixes (and the EUI-64 addresses formed from
them), default routers ranked by RFC 4191 preference and RDNSS
resolvers.  The figure-3 condition — a default route
from the gateway but *dead* RDNSS addresses — falls out naturally: the
state faithfully records whatever the RA said, and liveness is decided
by actually querying through the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import (
    IPv6Address,
    IPv6Network,
    link_local_from_mac,
    MacAddress,
    slaac_address,
)
from repro.net.icmpv6 import PrefixInformation, RouterAdvertisement, RouterPreference

__all__ = ["LearnedPrefix", "LearnedRouter", "SlaacState"]

#: Order routers best-first by RFC 4191 preference.
_PREFERENCE_RANK = {
    RouterPreference.HIGH: 0,
    RouterPreference.MEDIUM: 1,
    RouterPreference.LOW: 2,
}


@dataclass
class LearnedPrefix:
    prefix: IPv6Network
    address: Optional[IPv6Address]  # SLAAC address formed, if autonomous
    valid_until: float
    preferred_until: float
    learned_from: IPv6Address  # router link-local that advertised it


@dataclass
class LearnedRouter:
    address: IPv6Address  # router link-local source of the RA
    lladdr: Optional[MacAddress]
    preference: RouterPreference
    lifetime_until: float

    def rank(self) -> Tuple[int, int]:
        return (_PREFERENCE_RANK[self.preference], int(self.address))


class SlaacState:
    """Per-interface IPv6 autoconfiguration state."""

    def __init__(self, mac: MacAddress, clock) -> None:
        self.mac = mac
        self._clock = clock
        self.link_local = link_local_from_mac(mac)
        self.prefixes: Dict[IPv6Network, LearnedPrefix] = {}
        self.routers: Dict[IPv6Address, LearnedRouter] = {}
        self.rdnss: List[IPv6Address] = []
        self.ras_processed = 0
        #: Bumped on every *structural* prefix change (learn/withdraw,
        #: not lifetime refresh) so consumers can skip re-applying
        #: addresses when a periodic RA changed nothing.
        self.epoch = 0
        # Per router link-local, the last RA applied from it in full:
        # the RA object, its router record (None when the RA does not
        # make its sender a default router), the (prefix record, PIO)
        # pairs it refreshed, and the epoch before it was applied.
        self._refreshes: Dict[
            IPv6Address,
            Tuple[
                RouterAdvertisement,
                Optional[LearnedRouter],
                List[Tuple[LearnedPrefix, PrefixInformation]],
                int,
            ],
        ] = {}

    # -- RA intake ----------------------------------------------------------

    def process_ra(self, ra: RouterAdvertisement, router_source: IPv6Address) -> None:
        """Apply one received RA from ``router_source`` (its link-local)."""
        now = self._clock()
        self.ras_processed += 1
        # A periodic RA is one shared object per router (the decode is
        # memoised on the flooded packet), so a repeat is known by
        # identity.  If this router's last application of the same
        # object changed no prefix, and no prefix has changed since
        # (the epoch), applying it again could only move lifetimes on
        # the records it refreshed: its RDNSS entries are merged
        # already, and only RAs from this router touch its router
        # record or the prefixes it advertises.
        refresh = self._refreshes.get(router_source)
        if refresh is not None and refresh[0] is ra and refresh[3] == self.epoch:
            router = refresh[1]
            if router is not None:
                router.lifetime_until = now + ra.router_lifetime
            for learned, pio in refresh[2]:
                learned.valid_until = now + pio.valid_lifetime
                learned.preferred_until = now + pio.preferred_lifetime
            return
        epoch = self.epoch
        router = None
        if ra.router_lifetime > 0:
            # Update in place on refresh: periodic RAs dominate the RA
            # stream, and re-allocating a record per refresh is pure
            # hot-path churn.
            router = self.routers.get(router_source)
            if router is not None:
                router.lladdr = ra.source_lladdr
                router.preference = ra.preference
                router.lifetime_until = now + ra.router_lifetime
            else:
                router = self.routers[router_source] = LearnedRouter(
                    address=router_source,
                    lladdr=ra.source_lladdr,
                    preference=ra.preference,
                    lifetime_until=now + ra.router_lifetime,
                )
        else:
            self.routers.pop(router_source, None)
        refreshed: List[Tuple[LearnedPrefix, PrefixInformation]] = []
        for pio in ra.prefixes:
            if pio.valid_lifetime == 0:
                if self.prefixes.pop(pio.prefix, None) is not None:
                    self.epoch += 1
                continue
            learned = self.prefixes.get(pio.prefix)
            if (
                learned is not None
                and learned.learned_from == router_source
                and (learned.address is not None)
                == (pio.autonomous and pio.prefix.prefixlen == 64)
            ):
                learned.valid_until = now + pio.valid_lifetime
                learned.preferred_until = now + pio.preferred_lifetime
                refreshed.append((learned, pio))
                continue
            address = None
            if pio.autonomous and pio.prefix.prefixlen == 64:
                address = slaac_address(pio.prefix, self.mac)
            self.prefixes[pio.prefix] = LearnedPrefix(
                prefix=pio.prefix,
                address=address,
                valid_until=now + pio.valid_lifetime,
                preferred_until=now + pio.preferred_lifetime,
                learned_from=router_source,
            )
            self.epoch += 1
        for server in ra.rdnss_servers:
            if server not in self.rdnss:
                self.rdnss.append(server)
        # Recording the epoch from before this application means only
        # an application that changed no prefix can be replayed: after
        # one that did, the next repeat takes this full path again (and
        # is a pure refresh, unless the RA contradicts itself, say by
        # withdrawing a prefix it also advertises).
        self._refreshes[router_source] = (ra, router, refreshed, epoch)

    # -- queries --------------------------------------------------------------

    def addresses(self, include_link_local: bool = True) -> List[IPv6Address]:
        """All configured unicast addresses, valid prefixes only."""
        now = self._clock()
        out: List[IPv6Address] = []
        if include_link_local:
            out.append(self.link_local)
        for learned in self.prefixes.values():
            if learned.address is not None and learned.valid_until > now:
                out.append(learned.address)
        return out

    def global_addresses(self) -> List[IPv6Address]:
        return [a for a in self.addresses(include_link_local=False)]

    def default_router(self) -> Optional[LearnedRouter]:
        """The best live default router (RFC 4191 preference order)."""
        now = self._clock()
        live = [r for r in self.routers.values() if r.lifetime_until > now]
        if not live:
            return None
        return min(live, key=LearnedRouter.rank)

    def on_link(self, destination: IPv6Address) -> bool:
        now = self._clock()
        if destination.is_link_local:
            return True
        return any(
            destination in learned.prefix
            for learned in self.prefixes.values()
            if learned.valid_until > now
        )

    @property
    def has_global_connectivity(self) -> bool:
        return bool(self.global_addresses()) and self.default_router() is not None
