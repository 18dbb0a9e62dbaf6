"""DNS64 synthesis, CLAT translation and NAT44."""

import pytest

from repro.dns.message import DnsMessage
from repro.dns.rdata import RCode, RRType
from repro.dns.zone import Zone
from repro.net.addresses import embed_ipv4_in_nat64, IPv4Address, IPv6Address, IPv6Network
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.udp import UdpDatagram
from repro.xlat.clat import Clat, CLAT_IPV4_ADDRESS, ClatConfig
from repro.xlat.dns64 import DNS64Resolver, SYNTHETIC_TTL
from repro.xlat.nat44 import StatefulNat44
from repro.xlat.siit import TranslationError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_zones():
    z1 = Zone("supercomputing.org")
    z1.add_a("sc24.supercomputing.org", "190.92.158.4")
    z2 = Zone("ip6.me")
    z2.add_a("ip6.me", "23.153.8.71")
    z2.add_aaaa("ip6.me", "2001:4810:0:3::71")
    z3 = Zone("example.net")
    z3.add_a("private.example.net", "10.1.2.3")  # excluded from synthesis
    z3.add_a("long.example.net", "198.51.100.7", ttl=3600)
    return [z1, z2, z3]


class TestDns64:
    def _query(self, server, name, rrtype):
        wire = server.handle_query(DnsMessage.query(name, rrtype, ident=1).encode())
        return DnsMessage.decode(wire)

    def test_synthesis_for_v4_only_name(self):
        server = DNS64Resolver(make_zones())
        response = self._query(server, "sc24.supercomputing.org", RRType.AAAA)
        assert response.rcode == RCode.NOERROR
        aaaa = response.answers_of_type(RRType.AAAA)
        assert aaaa[0].rdata.address == IPv6Address("64:ff9b::be5c:9e04")
        assert server.synthesized == 1

    def test_native_aaaa_passes_through(self):
        server = DNS64Resolver(make_zones())
        response = self._query(server, "ip6.me", RRType.AAAA)
        assert response.answers_of_type(RRType.AAAA)[0].rdata.address == IPv6Address(
            "2001:4810:0:3::71"
        )
        assert server.synthesized == 0
        assert server.passed_through == 1

    def test_a_queries_answered_normally(self):
        """The figure-7 property: IPv4-resolver clients still get answers."""
        server = DNS64Resolver(make_zones())
        response = self._query(server, "sc24.supercomputing.org", RRType.A)
        assert response.answers_of_type(RRType.A)[0].rdata.address == IPv4Address(
            "190.92.158.4"
        )

    def test_nxdomain_not_synthesized(self):
        server = DNS64Resolver(make_zones())
        response = self._query(server, "nothere.ip6.me", RRType.AAAA)
        assert response.rcode == RCode.NXDOMAIN
        assert server.synthesized == 0

    def test_rfc1918_excluded(self):
        server = DNS64Resolver(make_zones())
        response = self._query(server, "private.example.net", RRType.AAAA)
        assert not response.answers_of_type(RRType.AAAA)

    def test_custom_prefix(self):
        server = DNS64Resolver(make_zones(), prefix=IPv6Network("2001:db8:64::/96"))
        response = self._query(server, "sc24.supercomputing.org", RRType.AAAA)
        assert response.answers_of_type(RRType.AAAA)[0].rdata.address in IPv6Network(
            "2001:db8:64::/96"
        )

    def test_synthetic_ttl_capped(self):
        server = DNS64Resolver(make_zones())
        response = self._query(server, "long.example.net", RRType.AAAA)
        aaaa = response.answers_of_type(RRType.AAAA)
        assert aaaa[0].rdata.address == embed_ipv4_in_nat64(IPv4Address("198.51.100.7"))
        assert aaaa[0].ttl == SYNTHETIC_TTL < 3600


class TestClat:
    CLAT6 = IPv6Address("2607:fb90:9bda:a425::c1a7")

    def _clat(self):
        return Clat(ClatConfig(clat_ipv6=self.CLAT6))

    def test_requires_ipv6_address(self):
        with pytest.raises(ValueError):
            Clat(ClatConfig())

    def test_outbound_embeds_destination(self):
        clat = self._clat()
        dst4 = IPv4Address("190.92.158.4")
        datagram = UdpDatagram(1234, 5200, b"echolink")
        packet4 = IPv4Packet(CLAT_IPV4_ADDRESS, dst4, IPProto.UDP,
                             datagram.encode(CLAT_IPV4_ADDRESS, dst4))
        packet6 = clat.outbound(packet4)
        assert packet6.src == self.CLAT6
        assert packet6.dst == embed_ipv4_in_nat64(dst4)

    def test_inbound_restores_ipv4(self):
        clat = self._clat()
        src6 = embed_ipv4_in_nat64(IPv4Address("190.92.158.4"))
        datagram = UdpDatagram(5200, 1234, b"reply")
        packet6 = IPv6Packet(src6, self.CLAT6, IPProto.UDP,
                             datagram.encode(src6, self.CLAT6))
        packet4 = clat.inbound(packet6)
        assert packet4.src == IPv4Address("190.92.158.4")
        assert packet4.dst == CLAT_IPV4_ADDRESS

    def test_inbound_rejects_non_nat64_source(self):
        clat = self._clat()
        src6 = IPv6Address("2001:db8::1")
        packet6 = IPv6Packet(src6, self.CLAT6, IPProto.UDP,
                             UdpDatagram(1, 2, b"").encode(src6, self.CLAT6))
        with pytest.raises(TranslationError):
            clat.inbound(packet6)

    def test_inbound_rejects_wrong_destination(self):
        clat = self._clat()
        src6 = embed_ipv4_in_nat64(IPv4Address("1.2.3.4"))
        other = IPv6Address("2607:fb90::99")
        packet6 = IPv6Packet(src6, other, IPProto.UDP,
                             UdpDatagram(1, 2, b"").encode(src6, other))
        with pytest.raises(TranslationError):
            clat.inbound(packet6)

    def test_disabled_clat_refuses(self):
        clat = self._clat()
        clat.enabled = False
        packet4 = IPv4Packet(CLAT_IPV4_ADDRESS, IPv4Address("1.2.3.4"), IPProto.UDP,
                             UdpDatagram(1, 2, b"").encode(CLAT_IPV4_ADDRESS, IPv4Address("1.2.3.4")))
        with pytest.raises(TranslationError):
            clat.outbound(packet4)


class TestNat44:
    INSIDE = IPv4Address("192.168.12.50")
    PUBLIC = IPv4Address("100.66.0.1")
    SERVER = IPv4Address("23.153.8.71")

    def _nat(self, clock=None):
        return StatefulNat44(self.PUBLIC, clock or FakeClock())

    def _udp_out(self, src_port=30000):
        datagram = UdpDatagram(src_port, 80, b"get")
        return IPv4Packet(self.INSIDE, self.SERVER, IPProto.UDP,
                          datagram.encode(self.INSIDE, self.SERVER))

    def test_out_and_back(self):
        nat = self._nat()
        out = nat.translate_out(self._udp_out())
        assert out.src == self.PUBLIC
        out_dgram = UdpDatagram.decode(out.payload, out.src, out.dst)
        reply = UdpDatagram(80, out_dgram.src_port, b"page")
        packet = IPv4Packet(self.SERVER, self.PUBLIC, IPProto.UDP,
                            reply.encode(self.SERVER, self.PUBLIC))
        back = nat.translate_in(packet)
        assert back.dst == self.INSIDE
        assert UdpDatagram.decode(back.payload, back.src, back.dst).dst_port == 30000

    def test_unknown_return_dropped(self):
        nat = self._nat()
        stray = IPv4Packet(self.SERVER, self.PUBLIC, IPProto.UDP,
                           UdpDatagram(80, 44444, b"x").encode(self.SERVER, self.PUBLIC))
        with pytest.raises(TranslationError):
            nat.translate_in(stray)

    def test_session_reuse(self):
        nat = self._nat()
        nat.translate_out(self._udp_out())
        nat.translate_out(self._udp_out())
        assert nat.session_count == 1

    def test_two_clients_two_sessions(self):
        nat = self._nat()
        nat.translate_out(self._udp_out())
        other = IPv4Packet(IPv4Address("192.168.12.51"), self.SERVER, IPProto.UDP,
                           UdpDatagram(30000, 80, b"x").encode(IPv4Address("192.168.12.51"), self.SERVER))
        nat.translate_out(other)
        assert nat.session_count == 2

    def test_udp_expiry(self):
        clock = FakeClock()
        nat = self._nat(clock)
        out = nat.translate_out(self._udp_out())
        out_dgram = UdpDatagram.decode(out.payload, out.src, out.dst)
        clock.now = 301.0
        reply = UdpDatagram(80, out_dgram.src_port, b"late")
        packet = IPv4Packet(self.SERVER, self.PUBLIC, IPProto.UDP,
                            reply.encode(self.SERVER, self.PUBLIC))
        with pytest.raises(TranslationError):
            nat.translate_in(packet)

    def test_icmp_echo_by_identifier(self):
        from repro.net.icmp import IcmpMessage

        nat = self._nat()
        echo = IcmpMessage.echo_request(0x42, 1, b"ping")
        packet = IPv4Packet(self.INSIDE, self.SERVER, IPProto.ICMP, echo.encode())
        out = nat.translate_out(packet)
        out_echo = IcmpMessage.decode(out.payload)
        reply = IcmpMessage.echo_reply(out_echo.echo_ident, 1, b"ping")
        back = nat.translate_in(
            IPv4Packet(self.SERVER, self.PUBLIC, IPProto.ICMP, reply.encode())
        )
        assert back.dst == self.INSIDE
        assert IcmpMessage.decode(back.payload).echo_ident == 0x42
