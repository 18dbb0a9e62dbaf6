"""Host-stack edge cases: socket management, CLAT data paths, interface
pending-queue expiry, proxy ARP/ND, the NIC receive filter, its
broadcast port check and the UDP port demux."""

import sys

import pytest

import repro.sim.iface
from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10
from repro.core.testbed import build_testbed, PI_DHCP_V4, TestbedConfig
from repro.nd.ra import RaDaemonConfig
from repro.net import icmpv6
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.udp import UdpDatagram
from repro.sim.host import Host, ServerHost
from repro.sim.iface import IPV4_BROADCAST
from repro.sim.node import connect
from repro.sim.router import Router
from repro.sim.stack import StackConfig
from repro.sim.switch import ManagedSwitch


@pytest.fixture
def lan(engine):
    switch = ManagedSwitch(engine, "sw")
    a = ServerHost(engine, "a", ipv4=IPv4Address("10.0.0.1"), ipv4_network=IPv4Network("10.0.0.0/24"))
    b = ServerHost(engine, "b", ipv4=IPv4Address("10.0.0.2"), ipv4_network=IPv4Network("10.0.0.0/24"))
    connect(engine, a.port("eth0"), switch.add_port("p1"))
    connect(engine, b.port("eth0"), switch.add_port("p2"))
    return engine, a, b


class TestSockets:
    def test_double_bind_rejected(self, lan):
        engine, a, b = lan
        a.udp_open(5000)
        with pytest.raises(RuntimeError, match="already bound"):
            a.udp_open(5000)

    def test_close_frees_port(self, lan):
        engine, a, b = lan
        sock = a.udp_open(5000)
        sock.close()
        a.udp_open(5000)  # no error

    def test_ephemeral_ports_distinct(self, lan):
        engine, a, b = lan
        ports = {a.udp_open().port for _ in range(20)}
        assert len(ports) == 20

    def test_socket_handler_reply_to_source(self, lan):
        engine, a, b = lan
        b.udp_serve(7000, lambda payload, src, sport: payload.upper())
        assert a.udp_exchange(IPv4Address("10.0.0.2"), 7000, b"hello") == b"HELLO"

    def test_socket_handler_explicit_destination(self, lan):
        engine, a, b = lan
        inbox = a.udp_open(7777)

        def handler(payload, src, sport):
            return (IPv4Address("10.0.0.1"), 7777, b"redirected")

        b.udp_serve(7001, handler)
        a.send_udp(50001, IPv4Address("10.0.0.2"), 7001, b"x")
        engine.run_for(0.5)
        assert inbox.inbox and inbox.inbox[0][2] == b"redirected"

    def test_unbound_port_datagram_dropped(self, lan):
        engine, a, b = lan
        assert a.udp_exchange(IPv4Address("10.0.0.2"), 9, b"x", timeout=0.3) is None

    def test_send_udp_without_route_fails(self, lan):
        engine, a, b = lan
        # Off-subnet with no router configured.
        assert not a.send_udp(50000, IPv4Address("192.0.2.1"), 53, b"x")


class TestStackErrorPaths:
    def test_v6only_host_cannot_reach_v4_without_clat(self, engine):
        host = Host(engine, "v6only", config=StackConfig(ipv4_enabled=False, clat_capable=False))
        assert host.tcp_connect(IPv4Address("192.0.2.1"), 80, timeout=0.2) is None
        assert host.last_connect_error == "no route/source address"

    def test_v4only_host_cannot_reach_v6(self, engine):
        host = Host(engine, "v4only", config=StackConfig(ipv6_enabled=False))
        assert host.tcp_connect(IPv6Address("2001:db8::1"), 80, timeout=0.2) is None

    def test_ping_without_any_route(self, engine):
        host = Host(engine, "alone")
        assert host.ping(IPv4Address("192.0.2.1"), timeout=0.2) is None


class TestNeighborQueues:
    def test_pending_queue_expires(self, lan):
        engine, a, b = lan
        a.send_udp(50000, IPv4Address("10.0.0.99"), 53, b"x")  # no such host
        assert a.iface._pending_v4
        engine.run_for(5.0)
        assert not a.iface._pending_v4

    def test_gleaning_avoids_arp(self, lan):
        engine, a, b = lan
        b.udp_serve(7000, lambda payload, src, sport: b"y")
        a.udp_exchange(IPv4Address("10.0.0.2"), 7000, b"x")
        arp_before = b.iface.arp_requests_sent
        # B learned A's MAC from the request; its reply needed no ARP.
        assert arp_before == 0

    def test_proxy_arp(self, engine):
        switch = ManagedSwitch(engine, "sw")
        proxy = ServerHost(engine, "proxy", ipv4=IPv4Address("10.0.0.1"),
                           ipv4_network=IPv4Network("10.0.0.0/24"))
        proxy.iface.proxy_arp_networks.append(IPv4Network("10.9.0.0/24"))
        asker = ServerHost(engine, "asker", ipv4=IPv4Address("10.0.0.2"),
                           ipv4_network=IPv4Network("10.0.0.0/24"))
        asker.iface.on_link_everything = True
        connect(engine, proxy.port("eth0"), switch.add_port("p1"))
        connect(engine, asker.port("eth0"), switch.add_port("p2"))
        asker.send_udp(50000, IPv4Address("10.9.0.7"), 53, b"x")
        engine.run_for(0.5)
        assert asker.iface.v4_neighbors.get(IPv4Address("10.9.0.7")) == proxy.mac

    def test_proxy_nd(self, engine):
        switch = ManagedSwitch(engine, "sw")
        proxy = ServerHost(engine, "proxy", ipv6=IPv6Address("2001:db8::1"))
        proxy.iface.proxy_nd_prefixes.append(IPv6Network("2001:db8:9::/64"))
        asker = ServerHost(engine, "asker", ipv6=IPv6Address("2001:db8::2"))
        asker.iface.on_link_everything = True
        connect(engine, proxy.port("eth0"), switch.add_port("p1"))
        connect(engine, asker.port("eth0"), switch.add_port("p2"))
        asker.send_udp(50000, IPv6Address("2001:db8:9::7"), 53, b"x")
        engine.run_for(0.5)
        assert asker.iface.v6_neighbors.get(IPv6Address("2001:db8:9::7")) == proxy.mac


def _spy_ipv6(iface):
    """Record every IPv6 frame ``iface`` passes its NIC filter (and so
    goes on to decode)."""
    seen = []
    handle = iface._handle_ipv6

    def spy(raw):
        seen.append(raw)
        handle(raw)

    iface._handle_ipv6 = spy
    return seen


class TestNicFilter:
    PREFIX = IPv6Network("2001:db8::/64")

    @pytest.fixture
    def v6lan(self, engine):
        """A router and three hosts, 2001:db8::1-3, on one switch."""
        switch = ManagedSwitch(engine, "sw")
        router = Router(engine, "rtr")
        lan = router.add_interface("lan", ipv6=(IPv6Address("2001:db8::ff"), self.PREFIX))
        solicitations = []
        lan.on_rs = lambda rs, src: solicitations.append(src)
        connect(engine, router.port("lan"), switch.add_port("p0"))
        hosts = []
        for number in (1, 2, 3):
            host = ServerHost(engine, f"h{number}", ipv6=IPv6Address(f"2001:db8::{number}"),
                              ipv6_network=self.PREFIX)
            connect(engine, host.port("eth0"), switch.add_port(f"p{number}"))
            hosts.append(host)
        return engine, switch, router, solicitations, hosts

    def test_host_drops_rs_and_foreign_ns_before_decoding(self, v6lan):
        engine, switch, router, solicitations, (a, b, c) = v6lan
        decoded = _spy_ipv6(b.iface)
        neighbors = dict(b.iface.v6_neighbors)
        a.solicit_routers()
        # Resolving h3 multicasts an NS to h3's solicited-node group.
        a.send_udp(50000, IPv6Address("2001:db8::3"), 9, b"x")
        engine.run_for(0.1)
        assert decoded == []
        assert b.iface.v6_neighbors == neighbors  # it learned neither sender

    def test_own_ns_all_nodes_ra_and_router_rs_still_get_through(self, v6lan):
        engine, switch, router, solicitations, (a, b, c) = v6lan
        a.solicit_routers()
        a.send_udp(50000, IPv6Address("2001:db8::3"), 9, b"x")
        engine.run_for(0.1)
        assert solicitations == [a.iface.link_local]
        assert a.iface.v6_neighbors[IPv6Address("2001:db8::3")] == c.mac
        decoded = _spy_ipv6(b.iface)
        switch.enable_ra_daemon(RaDaemonConfig(prefixes=(IPv6Network("2001:db8:1::/64"),)))
        engine.run_for(0.1)
        assert [raw[6:12] for raw in decoded] == [switch.mac.to_bytes()]

    def test_ra_flood_is_decoded_once_for_every_host(self, engine, monkeypatch):
        # Count decode_icmpv6 wherever it was imported from.
        calls = []
        decode = icmpv6.decode_icmpv6

        def counting(data, src, dst, verify=True):
            calls.append(data)
            return decode(data, src, dst, verify)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "decode_icmpv6", None) is decode:
                monkeypatch.setattr(module, "decode_icmpv6", counting)
        prefix = IPv6Network("2001:db8:4ad::/64")
        switch = ManagedSwitch(engine, "sw")
        hosts = [Host(engine, f"flood-{n}") for n in range(5)]
        for n, host in enumerate(hosts):
            connect(engine, host.port("eth0"), switch.add_port(f"p{n}"))
        switch.enable_ra_daemon(RaDaemonConfig(prefixes=(prefix,)))
        engine.run_for(0.1)
        assert len(calls) == 1
        for host in hosts:
            (address,) = host.slaac.global_addresses()
            assert address in prefix

    def test_removed_address_leaves_its_group_unless_another_shares_it(self, v6lan):
        engine, switch, router, solicitations, (a, b, c) = v6lan
        # fd00::3 has the same low 24 bits, so the same group, as 2001:db8::3.
        c.iface.add_ipv6(IPv6Address("fd00::3"))
        c.iface.remove_ipv6(IPv6Address("fd00::3"))
        a.send_udp(50000, IPv6Address("2001:db8::3"), 9, b"x")
        engine.run_for(0.1)
        assert a.iface.v6_neighbors[IPv6Address("2001:db8::3")] == c.mac
        decoded = _spy_ipv6(c.iface)
        c.iface.remove_ipv6(IPv6Address("2001:db8::3"))
        a.send_udp(50000, IPv6Address("2001:db8::103"), 9, b"x")
        engine.run_for(0.1)
        assert decoded == []


class TestBroadcastPortCheck:
    """A host's NIC drops an IPv4 broadcast to a UDP port no socket is
    bound to off the header; a bound port and a router keep it."""

    @pytest.fixture
    def ipv4_decodes(self, monkeypatch):
        """The wire bytes of every IPv4 packet an interface decodes."""
        calls = []
        decode = repro.sim.iface.decode_ipv4_cached

        def recording(data):
            calls.append(bytes(data))
            return decode(data)

        monkeypatch.setattr(repro.sim.iface, "decode_ipv4_cached", recording)
        return calls

    def test_host_drops_broadcast_to_unbound_port_before_decoding(self, lan, ipv4_decodes):
        engine, a, b = lan
        a.send_udp(50000, IPV4_BROADCAST, 6000, b"x")
        engine.run_for(0.1)
        assert ipv4_decodes == []
        assert IPv4Address("10.0.0.1") not in b.iface.v4_neighbors

    def test_bound_port_still_decodes_and_gleans(self, lan, ipv4_decodes):
        engine, a, b = lan
        sock = b.udp_open(6000)
        a.send_udp(50000, IPV4_BROADCAST, 6000, b"y")
        engine.run_for(0.1)
        assert len(ipv4_decodes) == 1
        assert [payload for _, _, payload in sock.inbox] == [b"y"]
        assert b.iface.v4_neighbors[IPv4Address("10.0.0.1")] == a.mac

    def test_router_decodes_broadcast_to_any_port(self, engine, ipv4_decodes):
        network = IPv4Network("10.0.0.0/24")
        switch = ManagedSwitch(engine, "sw")
        host = ServerHost(engine, "h", ipv4=IPv4Address("10.0.0.1"), ipv4_network=network)
        router = Router(engine, "rtr")
        lan = router.add_interface("lan", ipv4=(IPv4Address("10.0.0.254"), network))
        connect(engine, host.port("eth0"), switch.add_port("p1"))
        connect(engine, router.port("lan"), switch.add_port("p2"))
        host.send_udp(50000, IPV4_BROADCAST, 6000, b"x")
        engine.run_for(0.1)
        assert len(ipv4_decodes) == 1
        assert lan.v4_neighbors[IPv4Address("10.0.0.1")] == host.mac

    def test_only_its_own_dhcp_exchange_teaches_a_host_the_server(self):
        """Hosts stop gleaning the DHCP Pi's MAC from OFFERs and ACKs
        broadcast to other attendees; each attendee, including a
        macOS client granted option 108, learns it from its own."""
        testbed = build_testbed(TestbedConfig())
        idle = testbed.add_client(WINDOWS_10, "idle", bring_up=False)
        bystanders = (idle.host, testbed.pi_poison, testbed.pi_healthy)
        for profile, name in ((WINDOWS_10, "w10"), (MACOS, "mac"), (NINTENDO_SWITCH, "nsw")):
            client = testbed.add_client(profile, name)
            assert client.host.iface.v4_neighbors[PI_DHCP_V4] == testbed.pi_dhcp.mac
            for host in bystanders:
                assert PI_DHCP_V4 not in host.iface.v4_neighbors
        (mac,) = [client for client in testbed.clients if client.profile is MACOS]
        assert mac.host.v6only_wait is not None
        idle.bring_up()
        assert idle.host.iface.v4_neighbors[PI_DHCP_V4] == testbed.pi_dhcp.mac


class TestUdpDemux:
    @pytest.fixture
    def decodes(self, monkeypatch):
        """Destination addresses of every UdpDatagram.decode call."""
        calls = []
        decode = UdpDatagram.decode

        def counting(data, src, dst, verify=True):
            calls.append(dst)
            return decode(data, src, dst, verify)

        monkeypatch.setattr(UdpDatagram, "decode", staticmethod(counting))
        return calls

    def test_broadcast_to_unbound_port_is_never_decoded(self, lan, decodes):
        engine, a, b = lan
        a.send_udp(50000, IPv4Address("255.255.255.255"), 6000, b"x")
        engine.run_for(0.1)
        assert decodes == []
        sock = b.udp_open(6000)
        a.send_udp(50000, IPv4Address("255.255.255.255"), 6000, b"y")
        engine.run_for(0.1)
        assert decodes == [IPv4Address("255.255.255.255")]
        assert [payload for _, _, payload in sock.inbox] == [b"y"]

    def test_bad_checksum_to_bound_port_is_dropped(self, lan):
        engine, a, b = lan
        sock = b.udp_open(7000)
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        good = UdpDatagram(50000, 7000, b"hello").encode(src, dst)
        bad = good[:6] + bytes([good[6] ^ 0xFF]) + good[7:]
        for payload in (bad, good):
            a.send_ipv4_packet(IPv4Packet(src=src, dst=dst, proto=IPProto.UDP, payload=payload))
            engine.run_for(0.1)
        assert [payload for _, _, payload in sock.inbox] == [b"hello"]


class TestClatDataPaths:
    """End-to-end CLAT coverage beyond the browse path."""

    @pytest.fixture
    def rfc8925_client(self):
        testbed = build_testbed(TestbedConfig())
        client = testbed.add_client(MACOS, "mac")
        return testbed, client

    def test_udp_to_v4_literal_via_clat(self, rfc8925_client):
        testbed, client = rfc8925_client
        testbed.sc24_web.udp_serve(9053, lambda payload, src, sport: b"pong")
        from repro.core.testbed import SC24_WEB_V4

        reply = client.host.udp_exchange(SC24_WEB_V4, 9053, b"ping")
        assert reply == b"pong"
        assert client.host.clat.translated_out >= 1
        assert client.host.clat.translated_in >= 1

    def test_ping_v4_literal_via_clat(self, rfc8925_client):
        testbed, client = rfc8925_client
        from repro.core.testbed import SC24_WEB_V4

        rtt = client.host.ping(SC24_WEB_V4)
        assert rtt is not None

    def test_clat_source_never_used_for_plain_v6(self, rfc8925_client):
        """Regression: the CLAT's dedicated address must not be chosen
        as source for ordinary IPv6 traffic (its inbound path would eat
        the replies)."""
        testbed, client = rfc8925_client
        clat6 = client.host.clat.config.clat_ipv6
        src = client.host._source_for(IPv6Address("2001:470:1:18::115"))
        assert src != clat6
        src = client.host._source_for(IPv6Address("fd00:976a::9"))
        assert src != clat6

    def test_clat_address_is_gua(self, rfc8925_client):
        """Regression: the CLAT address must sit under the GUA prefix or
        its NAT64 flows die at the gateway's source check."""
        from repro.net.addresses import is_gua

        testbed, client = rfc8925_client
        assert is_gua(client.host.clat.config.clat_ipv6)

    def test_v6only_mode_records_wait(self, rfc8925_client):
        testbed, client = rfc8925_client
        assert client.host.v6only_wait == 300
        assert client.host.ipv4_config is None
        assert client.host.dhcp_dns_servers  # kept for OSes that use it
