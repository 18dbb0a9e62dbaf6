"""Stateful NAT64 (RFC 6146).

The translator sits between the IPv6-only access network and the IPv4
internet.  IPv6 packets whose destination falls inside the translation
prefix (``64:ff9b::/96`` on the paper's 5G gateway) are translated to
IPv4 using a pool address and an allocated port; return IPv4 traffic is
matched against the session table and translated back.

Implemented per RFC 6146:

- separate UDP, TCP and ICMP-query session tables (binding information
  bases) with independent lifetimes (§3.5);
- endpoint-independent mapping: one (v6 src, v6 port) pair maps to one
  (pool addr, port) for all destinations;
- ICMP queries tracked by identifier instead of port (§3.5.3);
- hairpinning guard (§3.8): v6→v6 through the prefix is rejected;
- address-dependent filtering is **off** (full-cone), matching consumer
  gateways like the testbed's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.net.addresses import (
    embed_ipv4_in_nat64,
    extract_ipv4_from_nat64,
    IPv4Address,
    IPv6Address,
    IPv6Network,
    WELL_KNOWN_NAT64_PREFIX,
)
from repro.net.icmp import IcmpMessage
from repro.net.icmpv6 import decode_icmpv6, encode_icmpv6, Icmpv6Message
from repro.net.ipv4 import encode_ipv4, IPProto
from repro.net.ipv6 import encode_ipv6
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.net.tcp import encode_tcp, TcpFlags, TcpSegment
from repro.net.udp import encode_udp, UdpDatagram
from repro.xlat.siit import translate_v4_to_v6, translate_v6_to_v4, TranslationError

__all__ = ["Nat64Config", "Nat64Session", "StatefulNAT64"]

#: RFC 6146 recommended minimums (seconds).
UDP_SESSION_LIFETIME = 300
TCP_ESTABLISHED_LIFETIME = 7440
TCP_TRANSITORY_LIFETIME = 240
ICMP_QUERY_LIFETIME = 60


@dataclass(frozen=True)
class Nat64Config:
    prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX
    pool: Tuple[IPv4Address, ...] = (IPv4Address("192.0.2.1"),)
    port_range: Tuple[int, int] = (1024, 65535)
    udp_lifetime: int = UDP_SESSION_LIFETIME
    tcp_established_lifetime: int = TCP_ESTABLISHED_LIFETIME
    tcp_transitory_lifetime: int = TCP_TRANSITORY_LIFETIME
    icmp_lifetime: int = ICMP_QUERY_LIFETIME


@dataclass
class Nat64Session:
    """One BIB entry + session (we keep them unified, full-cone)."""

    proto: int
    v6_addr: IPv6Address
    v6_port: int  # transport port, or ICMP identifier
    pool_addr: IPv4Address
    pool_port: int
    expires_at: float
    established: bool = False  # TCP only
    packets_out: int = 0
    packets_in: int = 0


class StatefulNAT64:
    """The translator.  ``translate_out`` maps v6→v4, ``translate_in``
    maps return v4→v6; both raise :class:`TranslationError` on drops."""

    def __init__(self, config: Nat64Config, clock: Callable[[], float], name: str = "nat64") -> None:
        self.config = config
        self._clock = clock
        self.name = name
        # (proto, v6_addr, v6_port) -> session, and the reverse index.
        self._by_v6: Dict[Tuple[int, IPv6Address, int], Nat64Session] = {}
        self._by_v4: Dict[Tuple[int, IPv4Address, int], Nat64Session] = {}
        self._next_port: Dict[IPProto, int] = {}
        self.translated_out = 0
        self.translated_in = 0
        self.dropped = 0

    # -- public API -----------------------------------------------------------

    def covers(self, destination: IPv6Address) -> bool:
        return destination in self.config.prefix

    def translate_out(self, packet: LazyIPv6Packet) -> LazyIPv4Packet:
        """Translate an IPv6 packet heading into the translation prefix.

        UDP and TCP are fused single-pass paths: the transport header is
        decoded once and built once, straight to wire bytes, with the
        NAPT source port and the translated pseudo-header, where the
        generic composition (SIIT translate, then port rewrite) decoded
        it three times and encoded it twice per forwarded packet.  The
        output bytes are identical; ICMP echo takes the generic path,
        and anything else is dropped.
        """
        if not self.covers(packet.dst):
            self.dropped += 1
            raise TranslationError(f"{packet.dst} outside NAT64 prefix")
        if packet.src in self.config.prefix:
            self.dropped += 1
            raise TranslationError("hairpinning through the NAT64 prefix refused")
        dst_v4 = extract_ipv4_from_nat64(packet.dst, self.config.prefix)
        next_header = packet.next_header
        if next_header == IPProto.TCP:
            s = TcpSegment.decode(packet.payload, packet.src, packet.dst)
            session = self._lookup_or_create(IPProto.TCP, packet.src, s.src_port)
            self._advance_tcp_state(session, s.flags, outbound=True)
            session.packets_out += 1
            segment = encode_tcp(
                session.pool_addr,
                dst_v4,
                session.pool_port,
                s.dst_port,
                s.seq,
                s.ack,
                s.flags,
                s.window,
                s.payload,
            )
            self.translated_out += 1
            return self._v4(session.pool_addr, dst_v4, IPProto.TCP, segment, packet)
        if next_header == IPProto.UDP:
            d = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
            session = self._lookup_or_create(IPProto.UDP, packet.src, d.src_port)
            session.packets_out += 1
            datagram = encode_udp(
                session.pool_addr, dst_v4, session.pool_port, d.dst_port, d.payload
            )
            self.translated_out += 1
            return self._v4(session.pool_addr, dst_v4, IPProto.UDP, datagram, packet)
        session = self._lookup_or_create(IPProto.ICMP, packet.src, self._echo_ident_v6(packet))
        session.packets_out += 1
        translated = translate_v6_to_v4(packet, session.pool_addr, dst_v4)
        m = IcmpMessage.decode(translated.payload)
        rewritten = IcmpMessage(
            m.icmp_type, m.code, ((session.pool_port & 0xFFFF) << 16) | m.echo_seq, m.body
        )
        self.translated_out += 1
        return self._v4(session.pool_addr, dst_v4, IPProto.ICMP, rewritten.encode(), packet)

    def translate_in(self, packet: LazyIPv4Packet) -> LazyIPv6Packet:
        """Translate a returning IPv4 packet back to the IPv6 client.

        UDP/TCP take the fused single-pass path (see
        :meth:`translate_out`); ICMP echo uses the generic one.
        """
        proto = packet.proto
        if proto == IPProto.TCP:
            s = TcpSegment.decode(packet.payload, packet.src, packet.dst)
            session = self._by_v4.get((IPProto.TCP, packet.dst, s.dst_port))
            if session is None or session.expires_at <= self._clock():
                self.dropped += 1
                raise TranslationError(
                    f"no NAT64 session for {packet.dst}:{s.dst_port}/{proto}"
                )
            self._advance_tcp_state(session, s.flags, outbound=False)
            session.packets_in += 1
            src_v6 = self._embed(packet.src)
            segment = encode_tcp(
                src_v6,
                session.v6_addr,
                s.src_port,
                session.v6_port,
                s.seq,
                s.ack,
                s.flags,
                s.window,
                s.payload,
            )
            self.translated_in += 1
            return self._v6(src_v6, session.v6_addr, IPProto.TCP, segment, packet)
        if proto == IPProto.UDP:
            d = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
            session = self._by_v4.get((IPProto.UDP, packet.dst, d.dst_port))
            if session is None or session.expires_at <= self._clock():
                self.dropped += 1
                raise TranslationError(
                    f"no NAT64 session for {packet.dst}:{d.dst_port}/{proto}"
                )
            session.packets_in += 1
            src_v6 = self._embed(packet.src)
            datagram = encode_udp(src_v6, session.v6_addr, d.src_port, session.v6_port, d.payload)
            self.translated_in += 1
            return self._v6(src_v6, session.v6_addr, IPProto.UDP, datagram, packet)
        pool_port = self._echo_ident_v4(packet)
        session = self._by_v4.get((IPProto.ICMP, packet.dst, pool_port))
        now = self._clock()
        if session is None or session.expires_at <= now:
            self.dropped += 1
            raise TranslationError(f"no NAT64 session for {packet.dst}:{pool_port}/{IPProto.ICMP}")
        session.packets_in += 1
        src_v6 = self._embed(packet.src)
        translated = translate_v4_to_v6(packet, src_v6, session.v6_addr)
        m = decode_icmpv6(translated.payload, src_v6, session.v6_addr)
        if isinstance(m, Icmpv6Message):
            # Restore the client's original identifier.
            rewritten = Icmpv6Message(
                m.icmp_type, m.code, ((session.v6_port & 0xFFFF) << 16) | m.echo_seq, m.body
            )
            payload = encode_icmpv6(rewritten, src_v6, session.v6_addr)
            translated = self._v6(src_v6, session.v6_addr, IPProto.ICMPV6, payload, packet)
        self.translated_in += 1
        return translated

    def _embed(self, addr: IPv4Address) -> IPv6Address:
        return embed_ipv4_in_nat64(addr, self.config.prefix)

    @staticmethod
    def _v4(
        src: IPv4Address, dst: IPv4Address, proto: int, payload: bytes, original: LazyIPv6Packet
    ) -> LazyIPv4Packet:
        """The translated IPv4 packet: RFC 7915 §5.1 maps the hop limit
        to the TTL and the traffic class to the TOS."""
        wire = encode_ipv4(
            src, dst, proto, payload, ttl=original.hop_limit, tos=original.traffic_class
        )
        return LazyIPv4Packet(wire, verify=False)

    @staticmethod
    def _v6(
        src: IPv6Address,
        dst: IPv6Address,
        next_header: int,
        payload: bytes,
        original: LazyIPv4Packet,
    ) -> LazyIPv6Packet:
        """The translated IPv6 packet: RFC 7915 §4.1 maps the TTL to the
        hop limit and the TOS to the traffic class."""
        wire = encode_ipv6(
            src, dst, next_header, payload, hop_limit=original.ttl, traffic_class=original.tos
        )
        return LazyIPv6Packet(wire)

    # -- session management ------------------------------------------------

    def _lookup_or_create(
        self, proto: int, v6_addr: IPv6Address, v6_port: int
    ) -> Nat64Session:
        now = self._clock()
        key = (proto, v6_addr, v6_port)
        session = self._by_v6.get(key)
        if session is not None and session.expires_at > now:
            session.expires_at = now + self._lifetime(session)
            return session
        if session is not None:
            self._remove(session)
        pool_addr, pool_port = self._allocate(proto, v6_port)
        session = Nat64Session(
            proto=proto,
            v6_addr=v6_addr,
            v6_port=v6_port,
            pool_addr=pool_addr,
            pool_port=pool_port,
            expires_at=now + self._initial_lifetime(proto),
        )
        self._by_v6[key] = session
        self._by_v4[(proto, pool_addr, pool_port)] = session
        return session

    def _allocate(self, proto: int, preferred_port: int) -> Tuple[IPv4Address, int]:
        lo, hi = self.config.port_range
        # Port preservation when free (RFC 6146 recommends trying).
        for pool_addr in self.config.pool:
            if (
                lo <= preferred_port <= hi
                and (proto, pool_addr, preferred_port) not in self._by_v4
            ):
                return pool_addr, preferred_port
        start = self._next_port.get(proto, lo)
        span = hi - lo + 1
        for offset in range(span):
            port = lo + (start - lo + offset) % span
            for pool_addr in self.config.pool:
                if (proto, pool_addr, port) not in self._by_v4:
                    self._next_port[proto] = lo + (port - lo + 1) % span
                    return pool_addr, port
        raise TranslationError("NAT64 pool exhausted")

    def _remove(self, session: Nat64Session) -> None:
        self._by_v6.pop((session.proto, session.v6_addr, session.v6_port), None)
        self._by_v4.pop((session.proto, session.pool_addr, session.pool_port), None)

    def expire_sessions(self) -> int:
        """Drop expired sessions; returns how many were removed."""
        now = self._clock()
        stale = [s for s in self._by_v6.values() if s.expires_at <= now]
        for session in stale:
            self._remove(session)
        return len(stale)

    def _initial_lifetime(self, proto: int) -> int:
        if proto == IPProto.UDP:
            return self.config.udp_lifetime
        if proto == IPProto.TCP:
            return self.config.tcp_transitory_lifetime
        return self.config.icmp_lifetime

    def _lifetime(self, session: Nat64Session) -> int:
        if session.proto == IPProto.TCP:
            return (
                self.config.tcp_established_lifetime
                if session.established
                else self.config.tcp_transitory_lifetime
            )
        return self._initial_lifetime(session.proto)

    def _advance_tcp_state(self, session: Nat64Session, flags: TcpFlags, outbound: bool) -> None:
        now = self._clock()
        if flags & TcpFlags.RST or flags & TcpFlags.FIN:
            session.established = False
            session.expires_at = now + self.config.tcp_transitory_lifetime
            return
        if not outbound and flags & TcpFlags.ACK:
            # Inbound ACK completes the handshake from the NAT's viewpoint.
            session.established = True
        if session.established:
            session.expires_at = now + self.config.tcp_established_lifetime

    # -- the ICMP echo path: identifier keys and rewriting --------------------

    def _echo_ident_v6(self, packet: LazyIPv6Packet) -> int:
        if packet.next_header == IPProto.ICMPV6:
            msg = decode_icmpv6(packet.payload, packet.src, packet.dst)
            if isinstance(msg, Icmpv6Message):
                return msg.echo_ident
        self.dropped += 1
        raise TranslationError(f"untrackable IPv6 next header {packet.next_header}")

    def _echo_ident_v4(self, packet: LazyIPv4Packet) -> int:
        if packet.proto == IPProto.ICMP:
            return IcmpMessage.decode(packet.payload).echo_ident
        self.dropped += 1
        raise TranslationError(f"untrackable IPv4 protocol {packet.proto}")

    # -- introspection ---------------------------------------------------------

    @property
    def session_count(self) -> int:
        now = self._clock()
        return sum(1 for s in self._by_v6.values() if s.expires_at > now)

    def sessions(self) -> List[Nat64Session]:
        return list(self._by_v6.values())
