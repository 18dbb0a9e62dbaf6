"""Links, switches (learning, snooping, RA daemon) and host stacks
exchanging real frames."""

import pytest

from repro.nd.ra import RaDaemonConfig
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.icmpv6 import RouterPreference
from repro.sim.host import Host, ServerHost
from repro.sim.node import connect
from repro.sim.stack import StackConfig
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace

LAN = IPv4Network("192.168.12.0/24")


def lan_host(engine, name, last_octet):
    host = ServerHost(
        engine,
        name,
        ipv4=IPv4Address(f"192.168.12.{last_octet}"),
        ipv4_network=LAN,
    )
    return host


@pytest.fixture
def fabric(engine):
    switch = ManagedSwitch(engine, "sw")
    a = lan_host(engine, "host-a", 10)
    b = lan_host(engine, "host-b", 11)
    c = lan_host(engine, "host-c", 12)
    for host, port in ((a, "p1"), (b, "p2"), (c, "p3")):
        connect(engine, host.port("eth0"), switch.add_port(port))
    return engine, switch, a, b, c


class TestSwitching:
    def test_ping_through_switch(self, fabric):
        engine, switch, a, b, c = fabric
        rtt = a.ping(IPv4Address("192.168.12.11"))
        assert rtt is not None and rtt > 0

    def test_mac_learning_limits_flooding(self, fabric):
        engine, switch, a, b, c = fabric
        a.ping(IPv4Address("192.168.12.11"))
        flooded_before = switch.flooded
        a.ping(IPv4Address("192.168.12.11"))
        # Second ping is unicast both ways: learned, no new flooding.
        assert switch.flooded == flooded_before
        assert switch.forwarded > 0

    def test_unknown_unicast_floods(self, fabric):
        engine, switch, a, b, c = fabric
        # ARP for a host that does not exist floods and gets no answer.
        assert a.ping(IPv4Address("192.168.12.99"), timeout=0.5) is None
        assert switch.flooded > 0

    def test_udp_exchange_through_switch(self, fabric):
        engine, switch, a, b, c = fabric
        b.udp_serve(9999, lambda payload, src, sport: b"pong:" + payload)
        reply = a.udp_exchange(IPv4Address("192.168.12.11"), 9999, b"ping")
        assert reply == b"pong:ping"

    def test_ipv6_link_local_ping(self, fabric):
        engine, switch, a, b, c = fabric
        rtt = a.ping(b.iface.link_local)
        assert rtt is not None

    def test_frame_to_switch_mac_not_forwarded(self, fabric):
        engine, switch, a, b, c = fabric
        frame = EthernetFrame(switch.mac, a.mac, EtherType.IPV4, b"\x00" * 20)
        rx_before = [host.port("eth0").rx_frames for host in (b, c)]
        a.port("eth0").transmit(frame.encode())
        engine.run_for(0.1)
        # Consumed by the switch's management plane, not flooded.
        assert [host.port("eth0").rx_frames for host in (b, c)] == rx_before


class TestSwitchRaDaemon:
    def test_ula_ra_reaches_clients(self, engine):
        switch = ManagedSwitch(engine, "sw")
        switch.enable_ra_daemon(
            RaDaemonConfig(
                prefixes=(IPv6Network("fd00:976a::/64"),),
                rdnss=(IPv6Address("fd00:976a::9"),),
                preference=RouterPreference.LOW,
                router_lifetime=0,
                interval=30.0,
            )
        )
        client = Host(engine, "client")
        connect(engine, client.port("eth0"), switch.add_port("p1"))
        engine.run_for(0.5)
        client.solicit_routers()
        engine.run_for(0.5)
        assert any(
            a in IPv6Network("fd00:976a::/64") for a in client.ipv6_global_addresses()
        )
        assert IPv6Address("fd00:976a::9") in client.slaac.rdnss
        # LOW-preference lifetime-0 RA must NOT install a default route.
        assert client.slaac.default_router() is None

    def test_one_ra_daemon_per_switch(self, engine):
        # A daemon runs for as long as the simulation: a second one is
        # refused, and the first keeps its period.
        switch = ManagedSwitch(engine, "sw")
        config = RaDaemonConfig(prefixes=(IPv6Network("fd00:976a::/64"),), interval=10.0)
        daemon = switch.enable_ra_daemon(config)
        with pytest.raises(RuntimeError, match="already runs an RA daemon"):
            switch.enable_ra_daemon(config)
        engine.run_for(25.0)
        assert daemon.sent == 3  # t=0, 10 and 20


class TestTcpOverFabric:
    def test_multi_segment_transfer(self, fabric):
        engine, switch, a, b, c = fabric
        received = []

        def on_establish(conn):
            def on_data(c2):
                received.append(c2.read())

            conn.on_data = on_data

        b.tcp_listen(8080, on_establish)
        conn = a.tcp_connect(IPv4Address("192.168.12.11"), 8080)
        assert conn is not None
        big = bytes(range(256)) * 20  # 5120 bytes > 4 segments
        conn.send(big)
        engine.run_for(1.0)
        assert b"".join(received) == big

    def test_connect_refused(self, fabric):
        engine, switch, a, b, c = fabric
        assert a.tcp_connect(IPv4Address("192.168.12.11"), 1) is None
        assert a.last_connect_error == "refused"

    def test_connect_timeout_no_host(self, fabric):
        engine, switch, a, b, c = fabric
        assert a.tcp_connect(IPv4Address("192.168.12.77"), 80, timeout=0.5) is None
        assert a.last_connect_error == "timeout"

    def test_bidirectional_close(self, fabric):
        engine, switch, a, b, c = fabric

        def on_establish(conn):
            conn.on_data = lambda c2: (c2.send(b"bye"), c2.close())

        b.tcp_listen(8081, on_establish)
        conn = a.tcp_connect(IPv4Address("192.168.12.11"), 8081)
        conn.send(b"hi")
        engine.run_for(1.0)
        assert conn.remote_closed
        assert bytes(conn.recv_buffer) == b"bye"
        conn.close()
        assert conn.state == conn.CLOSED


class TestLinkFailure:
    def test_cable_pull_stops_traffic(self, fabric):
        engine, switch, a, b, c = fabric
        assert a.ping(IPv4Address("192.168.12.11")) is not None
        link = b.port("eth0")._link
        link.disconnect()
        assert a.ping(IPv4Address("192.168.12.11"), timeout=0.5) is None
        link.reconnect()
        assert a.ping(IPv4Address("192.168.12.11")) is not None


class TestLiveFloodSet:
    """Unplugged ports leave the switch's flood set.  Counted, not timed."""

    @staticmethod
    def broadcast_ports(engine, switch, trace, sender):
        """The switch ports one broadcast from ``sender`` left by, in
        order.  Its ethertype is one no host handles, so nothing answers."""
        first = len(trace)
        before = sum(port.tx_frames for port in switch.ports.values())
        sender.port("eth0").transmit(b"\xff" * 6 + sender.mac.to_bytes() + b"\x88\xb5" + bytes(46))
        engine.run_for(0.01)
        ports = [entry.port for entry in trace.entries[first:] if entry.direction == "tx"]
        assert sum(port.tx_frames for port in switch.ports.values()) - before == len(ports)
        return ports

    def test_broadcast_after_churn_makes_one_transmit_per_other_live_port(self, engine):
        switch = ManagedSwitch(engine, "sw")
        hosts = [lan_host(engine, f"host-{number}", 10 + number) for number in range(10)]
        for number, host in enumerate(hosts):
            connect(engine, host.port("eth0"), switch.add_port(f"p{number}"))
        for number in range(1, 10):
            assert hosts[0].ping(IPv4Address(f"192.168.12.{10 + number}")) is not None
        unplugged = hosts[2::3]
        for host in unplugged:
            host.port("eth0")._link.disconnect()
        live = [port for port in switch.ports.values() if port.connected]
        assert len(live) == 7
        # The MACs learned on unplugged ports are forgotten.
        assert not any(not port.connected for port in switch.mac_table.values())
        trace = PacketTrace(engine.clock)
        switch.attach_trace(trace)
        assert self.broadcast_ports(engine, switch, trace, hosts[0]) == [
            "p1", "p3", "p4", "p6", "p7", "p9"
        ]
        # Re-plugged, a port floods again in its creation-order place.
        hosts[5].port("eth0")._link.reconnect()
        assert self.broadcast_ports(engine, switch, trace, hosts[0]) == [
            "p1", "p3", "p4", "p5", "p6", "p7", "p9"
        ]

    def test_ras_go_to_live_ports_only(self, engine):
        switch = ManagedSwitch(engine, "sw")
        hosts = [lan_host(engine, f"host-{number}", 10 + number) for number in range(4)]
        for number, host in enumerate(hosts):
            connect(engine, host.port("eth0"), switch.add_port(f"p{number}"))
        hosts[1].port("eth0")._link.disconnect()
        trace = PacketTrace(engine.clock)
        switch.attach_trace(trace)
        switch.enable_ra_daemon(
            RaDaemonConfig(prefixes=(IPv6Network("fd00:976a::/64"),), interval=1000.0)
        )
        engine.run_for(0.01)
        ras = [
            entry.port
            for entry in trace.entries
            if entry.direction == "tx" and entry.frame[6:12] == switch.mac.to_bytes()
        ]
        assert ras == ["p0", "p2", "p3"]

    def test_join_cost_stays_flat_under_churn(self, monkeypatch):
        """250 attendees join a testbed that keeps 30 on the floor, the
        oldest leaving before each new one joins.  Per arrival, switch
        transmits and ``Port.connected`` reads are the same in a late
        window as in an early one, however many ports departed attendees
        left behind."""
        from repro.clients import profiles
        from repro.core.testbed import Testbed, TestbedConfig
        from repro.sim.node import Port

        reads = []
        plain = Port.connected.fget
        counted = property(lambda port: reads.append(1) or plain(port))
        monkeypatch.setattr(Port, "connected", counted)
        mix = (profiles.IOS, profiles.ANDROID, profiles.MACOS, profiles.WINDOWS_10, profiles.LINUX)
        testbed = Testbed(TestbedConfig())
        present = []
        marks = {}
        for number in range(251):
            if number in (50, 100, 200, 250):
                transmits = sum(port.tx_frames for port in testbed.switch.ports.values())
                marks[number] = (len(reads), transmits)
            if number == 250:
                break
            if len(present) == 30:
                present.pop(0).disconnect()
            present.append(testbed.add_client(mix[number % len(mix)], f"attendee-{number}"))
        early = [after - before for before, after in zip(marks[50], marks[100])]
        late = [after - before for before, after in zip(marks[200], marks[250])]
        assert len(testbed.switch.ports) == 254  # 3 Pis, the gateway, 250 attendees
        # One read per cable change: each arrival plugs one port in, one out.
        assert late[0] <= early[0] <= 2 * 50
        assert early[1] > 0 and abs(late[1] - early[1]) <= early[1] // 100


class TestNodeRepr:
    def test_node_repr(self, engine):
        assert "box" in repr(Host(engine, "box"))


class TestStackConfigFlags:
    def test_ipv4_disabled_stack_sends_nothing_v4(self, engine):
        switch = ManagedSwitch(engine, "sw")
        v6only = Host(engine, "v6only", config=StackConfig(ipv4_enabled=False))
        server = lan_host(engine, "server", 20)
        connect(engine, v6only.port("eth0"), switch.add_port("p1"))
        connect(engine, server.port("eth0"), switch.add_port("p2"))
        assert v6only.ping(IPv4Address("192.168.12.20"), timeout=0.5) is None
        assert v6only.iface.tx_ipv4_unicast == 0

    def test_ipv6_disabled_stack_ignores_ras(self, engine):
        switch = ManagedSwitch(engine, "sw")
        switch.enable_ra_daemon(
            RaDaemonConfig(prefixes=(IPv6Network("fd00:976a::/64"),), interval=5.0)
        )
        legacy = Host(engine, "legacy", config=StackConfig(ipv6_enabled=False, accept_ras=False))
        connect(engine, legacy.port("eth0"), switch.add_port("p1"))
        engine.run_for(10.0)
        assert not legacy.ipv6_global_addresses()
