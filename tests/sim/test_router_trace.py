"""Router forwarding/ACLs and the packet trace facility."""

import pytest

from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network, MacAddress
from repro.net.ethernet import EthernetFrame, EtherType
from repro.sim.host import ServerHost
from repro.sim.node import connect
from repro.sim.router import AclRule, Router
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace, summarize_frame


@pytest.fixture
def routed(engine):
    """Two LANs joined by a router (a miniature figure-1 edge)."""
    router = Router(engine, "edge")
    router.add_interface(
        "inside",
        ipv4=(IPv4Address("10.1.0.1"), IPv4Network("10.1.0.0/24")),
        ipv6=(IPv6Address("2620:0:dc0:1::1"), IPv6Network("2620:0:dc0:1::/64")),
    )
    router.add_interface(
        "outside",
        ipv4=(IPv4Address("10.2.0.1"), IPv4Network("10.2.0.0/24")),
        ipv6=(IPv6Address("2620:0:dc0:2::1"), IPv6Network("2620:0:dc0:2::/64")),
    )
    sw1 = ManagedSwitch(engine, "sw1")
    sw2 = ManagedSwitch(engine, "sw2")
    connect(engine, router.port("inside"), sw1.add_port("p-r"))
    connect(engine, router.port("outside"), sw2.add_port("p-r"))
    inside = ServerHost(
        engine,
        "inside-host",
        ipv4=IPv4Address("10.1.0.10"),
        ipv4_network=IPv4Network("10.1.0.0/24"),
        ipv4_gateway=IPv4Address("10.1.0.1"),
        ipv6=IPv6Address("2620:0:dc0:1::10"),
        ipv6_gateway=router.ifaces["inside"].link_local,
    )
    outside = ServerHost(
        engine,
        "outside-host",
        ipv4=IPv4Address("10.2.0.10"),
        ipv4_network=IPv4Network("10.2.0.0/24"),
        ipv4_gateway=IPv4Address("10.2.0.1"),
        ipv6=IPv6Address("2620:0:dc0:2::10"),
        ipv6_gateway=router.ifaces["outside"].link_local,
    )
    connect(engine, inside.port("eth0"), sw1.add_port("p-h"))
    connect(engine, outside.port("eth0"), sw2.add_port("p-h"))
    return engine, router, inside, outside


class TestForwarding:
    def test_v4_forwarding(self, routed):
        engine, router, inside, outside = routed
        assert inside.ping(IPv4Address("10.2.0.10")) is not None
        assert router.forwarded_v4 >= 2

    def test_v6_forwarding(self, routed):
        engine, router, inside, outside = routed
        assert inside.ping(IPv6Address("2620:0:dc0:2::10")) is not None
        assert router.forwarded_v6 >= 2

    def test_router_answers_own_address(self, routed):
        engine, router, inside, outside = routed
        assert inside.ping(IPv4Address("10.1.0.1")) is not None
        # Both of its IPv6 addresses answer, the far one without a forward.
        for own in ("2620:0:dc0:1::1", "2620:0:dc0:2::1"):
            assert inside.ping(IPv6Address(own)) is not None
        assert router.forwarded_v6 == 0

    def test_no_route_drops(self, routed):
        engine, router, inside, outside = routed
        assert inside.ping(IPv4Address("172.16.0.1"), timeout=0.5) is None


class TestAcl:
    def test_v4_deny_blocks_and_counts(self, routed):
        engine, router, inside, outside = routed
        router.acl.append(
            AclRule(
                src=IPv4Network("10.1.0.0/24"),
                dst=IPv4Network("10.2.0.0/24"),
                is_ipv4=True,
                description="block inside->outside v4",
            )
        )
        assert inside.ping(IPv4Address("10.2.0.10"), timeout=0.5) is None
        assert router.acl_drops >= 1
        assert router.acl[0].hits >= 1

    def test_v6_unaffected_by_v4_acl(self, routed):
        engine, router, inside, outside = routed
        router.acl.append(
            AclRule(src=IPv4Network("10.1.0.0/24"), is_ipv4=True)
        )
        assert inside.ping(IPv6Address("2620:0:dc0:2::10")) is not None

    def test_v6_deny(self, routed):
        engine, router, inside, outside = routed
        router.acl.append(
            AclRule(dst=IPv6Network("2620:0:dc0:2::/64"), is_ipv4=False)
        )
        assert inside.ping(IPv6Address("2620:0:dc0:2::10"), timeout=0.5) is None


class TestTrace:
    def test_capture_and_filter(self, routed):
        engine, router, inside, outside = routed
        trace = PacketTrace(engine.clock)
        inside.attach_trace(trace)
        inside.ping(IPv4Address("10.2.0.10"))
        assert len(trace) > 0
        rx = [e for e in trace.entries if e.node == "inside-host" and e.direction == "rx"]
        assert rx
        assert any("IPv4" in e.summary for e in trace.entries)
        assert "inside-host" in str(rx[0])

    def test_summaries_decode_protocols(self, routed):
        engine, router, inside, outside = routed
        trace = PacketTrace(engine.clock)
        inside.attach_trace(trace)
        inside.udp_exchange(IPv4Address("10.2.0.10"), 53, b"q", timeout=0.5)
        udp_lines = [e for e in trace.entries if "udp" in e.summary]
        assert udp_lines
        assert "53" in udp_lines[0].summary

    def test_capacity_cap(self, engine):
        trace = PacketTrace(engine.clock, capacity=5)
        for i in range(10):
            trace.record("n", "p", "tx", b"\x00" * 14)
        assert len(trace) == 5

    def test_dump(self, routed):
        engine, router, inside, outside = routed
        trace = PacketTrace(engine.clock)
        inside.attach_trace(trace)
        inside.ping(IPv4Address("10.2.0.10"))
        assert isinstance(trace.dump(), str)


class TestTraceSummaries:
    def test_malformed_frame_summary(self):
        assert "malformed" in summarize_frame(b"\x00" * 5)

    def test_arp_summary(self):
        frame = EthernetFrame(MacAddress((1 << 48) - 1), MacAddress(2), EtherType.ARP, b"\x00" * 28)
        assert summarize_frame(frame.encode()).startswith("ARP")

    def test_unknown_ethertype_summary(self):
        frame = EthernetFrame(MacAddress(1), MacAddress(2), 0x88CC, b"lldp")
        assert "0x88cc" in summarize_frame(frame.encode())
