"""P1/P2: component throughput benchmarks.

These are the "no optimization without measuring" numbers for the
library's hot paths (per the HPC guide): DNS serving, poisoning, DNS64
synthesis, NAT64/NAT44/SIIT translation, codec and checksum costs.
"""

from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.dns.message import DnsMessage
from repro.dns.rdata import RRType
from repro.dns.zone import Zone
from repro.net.addresses import embed_ipv4_in_nat64, IPv4Address, IPv6Address
from repro.net.checksum import internet_checksum
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.udp import UdpDatagram
from repro.xlat.dns64 import DNS64Resolver
from repro.xlat.nat44 import StatefulNat44
from repro.xlat.nat64 import Nat64Config, StatefulNAT64


class Clock:
    now = 0.0

    def __call__(self):
        return self.now


def make_dns64():
    zone = Zone("supercomputing.org")
    for i in range(200):
        zone.add_a(f"host{i}.supercomputing.org", str(IPv4Address(0xBE000000 + i)))
    return DNS64Resolver([zone])


class TestDnsThroughput:
    def test_authoritative_a_query(self, benchmark):
        server = make_dns64()
        wire = DnsMessage.query("host7.supercomputing.org", RRType.A, ident=1).encode()
        result = benchmark(server.handle_query, wire)
        assert result is not None

    def test_dns64_synthesis_query(self, benchmark):
        server = make_dns64()
        wire = DnsMessage.query("host7.supercomputing.org", RRType.AAAA, ident=1).encode()
        result = benchmark(server.handle_query, wire)
        assert result is not None

    def test_poisoned_a_query(self, benchmark):
        upstream = make_dns64()
        poisoner = PoisonedDNSServer(
            InterventionConfig(poison_address=IPv4Address("23.153.8.71")),
            upstream.handle_query,
        )
        wire = DnsMessage.query("host7.supercomputing.org", RRType.A, ident=1).encode()
        result = benchmark(poisoner.handle_query, wire)
        assert result is not None

    def test_message_encode(self, benchmark):
        message = DnsMessage.query("sc24.supercomputing.org", RRType.AAAA, ident=1)
        benchmark(message.encode)

    def test_message_decode(self, benchmark):
        server = make_dns64()
        wire = server.handle_query(
            DnsMessage.query("host7.supercomputing.org", RRType.AAAA, ident=1).encode()
        )
        benchmark(DnsMessage.decode, wire)


CLIENT6 = IPv6Address("2607:fb90:9bda:a425::100")
SERVER4 = IPv4Address("190.92.158.4")
SERVER6 = embed_ipv4_in_nat64(SERVER4)


class TestTranslationThroughput:
    def _udp6(self, port):
        datagram = UdpDatagram(port, 53, b"x" * 64)
        return IPv6Packet(CLIENT6, SERVER6, IPProto.UDP, datagram.encode(CLIENT6, SERVER6))

    def test_nat64_established_flow(self, benchmark):
        nat = StatefulNAT64(Nat64Config(pool=(IPv4Address("100.66.0.2"),)), Clock())
        packet = self._udp6(40000)
        nat.translate_out(packet)  # create the session once
        benchmark(nat.translate_out, packet)

    def test_nat64_session_churn(self, benchmark):
        nat = StatefulNAT64(Nat64Config(pool=(IPv4Address("100.66.0.2"),)), Clock())
        counter = iter(range(1024, 60000))

        def one_new_session():
            nat.translate_out(self._udp6(next(counter)))

        benchmark(one_new_session)

    def test_nat44_established_flow(self, benchmark):
        nat = StatefulNat44(IPv4Address("100.66.0.1"), Clock())
        datagram = UdpDatagram(30000, 80, b"x" * 64)
        packet = IPv4Packet(
            IPv4Address("192.168.12.50"), SERVER4, IPProto.UDP,
            datagram.encode(IPv4Address("192.168.12.50"), SERVER4),
        )
        nat.translate_out(packet)
        benchmark(nat.translate_out, packet)


class TestCodecThroughput:
    def test_checksum_1500_bytes(self, benchmark):
        data = bytes(range(256)) * 6
        benchmark(internet_checksum, data[:1500])

    def test_ipv4_encode(self, benchmark):
        packet = IPv4Packet(SERVER4, IPv4Address("23.153.8.71"), IPProto.UDP, b"y" * 512)
        benchmark(packet.encode)

    def test_ipv4_decode(self, benchmark):
        wire = IPv4Packet(SERVER4, IPv4Address("23.153.8.71"), IPProto.UDP, b"y" * 512).encode()
        benchmark(IPv4Packet.decode, wire)

    def test_ipv6_encode(self, benchmark):
        packet = IPv6Packet(CLIENT6, SERVER6, IPProto.UDP, b"y" * 512)
        benchmark(packet.encode)

    def test_udp_encode_with_checksum(self, benchmark):
        datagram = UdpDatagram(1234, 53, b"z" * 512)
        benchmark(datagram.encode, CLIENT6, SERVER6)
