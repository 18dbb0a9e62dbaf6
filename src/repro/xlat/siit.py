"""Stateless IP/ICMP translation (SIIT), per RFC 7915 — the modern
revision of the RFC 6145 algorithm the paper names.

Both NAT64 (network side) and CLAT (customer side) are built on these
two functions.  Translation reads a packet view and builds the
translated packet straight to wire bytes, returned as a view over them.
It re-derives transport checksums because UDP/TCP checksums cover the
IP pseudo-header, which changes family:

- IPv4 → IPv6: TTL → hop limit, protocol → next header, ICMP type/code
  mapped to ICMPv6 equivalents;
- IPv6 → IPv4: the reverse, with ICMPv6 → ICMP mapping.

Unsupported constructs (fragments, extension headers, unmappable ICMP
types) raise :class:`TranslationError`, which the translators count and
drop — the same observable behaviour as a real middlebox.
"""

from __future__ import annotations

from repro.net.addresses import IPv4Address, IPv6Address
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import decode_icmpv6, encode_icmpv6, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import encode_ipv4, IPProto
from repro.net.ipv6 import encode_ipv6
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram

__all__ = ["TranslationError", "translate_v4_to_v6", "translate_v6_to_v4"]


class TranslationError(Exception):
    """The packet cannot be translated (RFC 7915 'silently drop' cases)."""


def translate_v4_to_v6(
    packet: LazyIPv4Packet,
    new_src: IPv6Address,
    new_dst: IPv6Address,
) -> LazyIPv6Packet:
    """Translate one IPv4 packet to IPv6 (RFC 7915 §4).

    The caller supplies the translated addresses (stateless derivation
    for SIIT/CLAT, session lookup for NAT64); this function handles the
    header algorithm and transport checksum reconstruction.
    """
    if packet.proto == IPProto.UDP:
        datagram = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
        payload = datagram.encode(new_src, new_dst)
        next_header = IPProto.UDP
    elif packet.proto == IPProto.TCP:
        segment = TcpSegment.decode(packet.payload, packet.src, packet.dst)
        payload = segment.encode(new_src, new_dst)
        next_header = IPProto.TCP
    elif packet.proto == IPProto.ICMP:
        icmp = IcmpMessage.decode(packet.payload)
        payload = encode_icmpv6(_icmp4_to_icmp6(icmp), new_src, new_dst)
        next_header = IPProto.ICMPV6
    else:
        raise TranslationError(f"untranslatable IPv4 protocol {packet.proto}")
    return LazyIPv6Packet(
        encode_ipv6(
            new_src, new_dst, next_header, payload, hop_limit=packet.ttl, traffic_class=packet.tos
        )
    )


def translate_v6_to_v4(
    packet: LazyIPv6Packet,
    new_src: IPv4Address,
    new_dst: IPv4Address,
) -> LazyIPv4Packet:
    """Translate one IPv6 packet to IPv4 (RFC 7915 §5)."""
    if packet.next_header == IPProto.UDP:
        datagram = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
        payload = datagram.encode(new_src, new_dst)
        proto = IPProto.UDP
    elif packet.next_header == IPProto.TCP:
        segment = TcpSegment.decode(packet.payload, packet.src, packet.dst)
        payload = segment.encode(new_src, new_dst)
        proto = IPProto.TCP
    elif packet.next_header == IPProto.ICMPV6:
        icmp6 = decode_icmpv6(packet.payload, packet.src, packet.dst)
        if not isinstance(icmp6, Icmpv6Message):
            raise TranslationError("NDP messages are single-link; not translated")
        payload = _icmp6_to_icmp4(icmp6).encode()
        proto = IPProto.ICMP
    else:
        raise TranslationError(f"untranslatable IPv6 next header {packet.next_header}")
    wire = encode_ipv4(
        new_src, new_dst, proto, payload, ttl=packet.hop_limit, tos=packet.traffic_class
    )
    return LazyIPv4Packet(wire, verify=False)


# -- ICMP type/code mapping (RFC 7915 §4.2 / §5.2, echo subset + errors) -----

def _icmp4_to_icmp6(icmp: IcmpMessage) -> Icmpv6Message:
    if icmp.icmp_type == IcmpType.ECHO_REQUEST:
        return Icmpv6Message(Icmpv6Type.ECHO_REQUEST, 0, icmp.rest, icmp.body)
    if icmp.icmp_type == IcmpType.ECHO_REPLY:
        return Icmpv6Message(Icmpv6Type.ECHO_REPLY, 0, icmp.rest, icmp.body)
    if icmp.icmp_type == IcmpType.DEST_UNREACHABLE:
        # Codes: net/host unreachable → no route (0); port unreachable →
        # port unreachable (4); admin prohibited → admin prohibited (1).
        code_map = {0: 0, 1: 0, 3: 4, 13: 1}
        code = code_map.get(icmp.code)
        if code is None:
            raise TranslationError(f"unmappable ICMPv4 unreachable code {icmp.code}")
        return Icmpv6Message(Icmpv6Type.DEST_UNREACHABLE, code, 0, icmp.body)
    if icmp.icmp_type == IcmpType.TIME_EXCEEDED:
        return Icmpv6Message(Icmpv6Type.TIME_EXCEEDED, icmp.code, 0, icmp.body)
    raise TranslationError(f"unmappable ICMPv4 type {icmp.icmp_type}")


def _icmp6_to_icmp4(icmp6: Icmpv6Message) -> IcmpMessage:
    if icmp6.icmp_type == Icmpv6Type.ECHO_REQUEST:
        return IcmpMessage(IcmpType.ECHO_REQUEST, 0, icmp6.rest, icmp6.body)
    if icmp6.icmp_type == Icmpv6Type.ECHO_REPLY:
        return IcmpMessage(IcmpType.ECHO_REPLY, 0, icmp6.rest, icmp6.body)
    if icmp6.icmp_type == Icmpv6Type.DEST_UNREACHABLE:
        code_map = {0: 1, 1: 13, 2: 1, 3: 1, 4: 3}
        code = code_map.get(icmp6.code)
        if code is None:
            raise TranslationError(f"unmappable ICMPv6 unreachable code {icmp6.code}")
        return IcmpMessage(IcmpType.DEST_UNREACHABLE, code, 0, icmp6.body)
    if icmp6.icmp_type == Icmpv6Type.TIME_EXCEEDED:
        return IcmpMessage(IcmpType.TIME_EXCEEDED, icmp6.code, 0, icmp6.body)
    raise TranslationError(f"unmappable ICMPv6 type {icmp6.icmp_type}")
