"""CLAT — the customer-side translator of 464XLAT (RFC 6877).

When a client's DHCPv4 exchange grants option 108, the OS disables its
IPv4 interface configuration and (on Apple/Android/recent-Windows
stacks) starts a CLAT: a host-internal stateless translator that
presents a private IPv4 interface (``192.0.0.1/29``, RFC 7335) to
IPv4-only *applications* and translates their packets into IPv6 flows
through the NAT64 (the PLAT).

This is what lets the paper's Echolink-style IPv4-literal applications
keep working on an RFC 8925 client: the app talks IPv4 to the CLAT, the
wire carries only IPv6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addresses import (
    embed_ipv4_in_nat64,
    IPv4Address,
    IPv6Address,
    IPv6Network,
    WELL_KNOWN_NAT64_PREFIX,
)
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.xlat.siit import translate_v4_to_v6, translate_v6_to_v4, TranslationError

__all__ = ["ClatConfig", "Clat"]

#: RFC 7335: the IPv4 service continuity prefix for CLAT-internal use.
CLAT_IPV4_ADDRESS = IPv4Address("192.0.0.1")


@dataclass(frozen=True)
class ClatConfig:
    """CLAT parameters discovered from the network.

    ``clat_ipv6`` is the dedicated IPv6 address the CLAT sources
    translated flows from (a real deployment acquires one via DHCPv6 PD
    or picks an interface address; the simulation assigns one from the
    host's SLAAC address space).
    """

    nat64_prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX
    clat_ipv4: IPv4Address = CLAT_IPV4_ADDRESS
    clat_ipv6: Optional[IPv6Address] = None


class Clat:
    """The host-internal 4→6→4 translator.

    ``outbound(packet4) -> packet6`` translates an application's IPv4
    packet to the IPv6 wire; ``inbound(packet6) -> packet4`` translates
    returning traffic back for the application.  Stateless: the IPv4
    destination is embedded into the NAT64 prefix (RFC 6877 §6.3), and
    the return path extracts it again.
    """

    def __init__(self, config: ClatConfig) -> None:
        if config.clat_ipv6 is None:
            raise ValueError("CLAT requires a dedicated IPv6 source address")
        self.config = config
        self.enabled = True
        self.translated_out = 0
        self.translated_in = 0

    def outbound(self, packet: LazyIPv4Packet) -> LazyIPv6Packet:
        """Translate an application IPv4 packet for the IPv6-only wire."""
        if not self.enabled:
            raise TranslationError("CLAT disabled")
        dst6 = embed_ipv4_in_nat64(packet.dst, self.config.nat64_prefix)
        translated = translate_v4_to_v6(packet, self.config.clat_ipv6, dst6)
        self.translated_out += 1
        return translated

    def inbound(self, packet: LazyIPv6Packet) -> LazyIPv4Packet:
        """Translate a returning IPv6 packet back to application IPv4."""
        if not self.enabled:
            raise TranslationError("CLAT disabled")
        if packet.src not in self.config.nat64_prefix:
            raise TranslationError(
                f"inbound packet source {packet.src} outside NAT64 prefix"
            )
        if packet.dst != self.config.clat_ipv6:
            raise TranslationError("inbound packet not addressed to the CLAT")
        from repro.net.addresses import extract_ipv4_from_nat64

        src4 = extract_ipv4_from_nat64(packet.src, self.config.nat64_prefix)
        translated = translate_v6_to_v4(packet, src4, self.config.clat_ipv4)
        self.translated_in += 1
        return translated
