"""Router Advertisement emission.

Two RA daemons exist in the paper's testbed:

- the 5G gateway's — advertising its (rotating) GUA /64 plus the *dead*
  ULA RDNSS servers ``fd00:976a::9``/``::10``, with no configuration
  knobs (figure 3);
- the managed switch's — advertising ``fd00:976a::/64`` as an on-link
  SLAAC prefix at **LOW** router preference plus the healthy RDNSS, the
  paper's workaround that brings a live resolver to that dead address.

:class:`RaDaemon` turns an :class:`RaDaemonConfig` into periodic (and
solicited) :class:`~repro.net.icmpv6.RouterAdvertisement` messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.net.addresses import IPv6Address, IPv6Network, MacAddress
from repro.net.icmpv6 import (
    LinkLayerAddressOption,
    MtuOption,
    NdOptionType,
    PrefixInformation,
    RdnssOption,
    RouterAdvertisement,
    RouterPreference,
)

__all__ = ["RaDaemonConfig", "RaDaemon"]


@dataclass(frozen=True)
class RaDaemonConfig:
    """Everything an RA daemon advertises."""

    prefixes: Sequence[IPv6Network] = ()
    rdnss: Sequence[IPv6Address] = ()
    preference: RouterPreference = RouterPreference.MEDIUM
    router_lifetime: int = 1800
    mtu: Optional[int] = 1500
    interval: float = 200.0
    prefix_valid_lifetime: int = 2592000
    prefix_preferred_lifetime: int = 604800


class RaDaemon:
    """Builds RAs for a router interface; the simulator schedules them."""

    def __init__(self, config: RaDaemonConfig, lladdr: MacAddress) -> None:
        self.config = config
        self.lladdr = lladdr
        self.sent = 0

    def build_ra(self) -> RouterAdvertisement:
        cfg = self.config
        options: List[object] = [
            LinkLayerAddressOption(NdOptionType.SOURCE_LINK_LAYER_ADDRESS, self.lladdr)
        ]
        if cfg.mtu:
            options.append(MtuOption(cfg.mtu))
        for prefix in cfg.prefixes:
            options.append(
                PrefixInformation(
                    prefix,
                    valid_lifetime=cfg.prefix_valid_lifetime,
                    preferred_lifetime=cfg.prefix_preferred_lifetime,
                )
            )
        if cfg.rdnss:
            options.append(RdnssOption(tuple(cfg.rdnss)))
        self.sent += 1
        return RouterAdvertisement(
            preference=cfg.preference,
            router_lifetime=cfg.router_lifetime,
            options=tuple(options),
        )
