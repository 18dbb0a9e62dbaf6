"""Fuzz robustness: no component may crash on malformed input.

Servers face the network; the simulator's hosts face whatever a buggy
peer emits.  Every handler must drop garbage, never raise.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.profiles import WINDOWS_11_RFC8925
from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.testbed import build_testbed, SC24_WEB_V4, TestbedConfig
from repro.dhcp.server import DhcpPool, DhcpServer
from repro.dns.zone import Zone
from repro.net.addresses import embed_ipv4_in_nat64, IPv4Address, IPv4Network, IPv6Address
from repro.net.checksum import internet_checksum, pseudo_sum_v4, pseudo_sum_v6
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.sim.engine import EventEngine
from repro.sim.host import Host, ServerHost
from repro.sim.node import connect
from repro.sim.switch import ManagedSwitch
from repro.xlat.dns64 import DNS64Resolver

garbage = st.binary(min_size=0, max_size=600)


def make_dns_targets():
    zone = Zone("fuzz.test")
    zone.add_a("web.fuzz.test", "192.0.2.1")
    upstream = DNS64Resolver([zone])
    poison = IPv4Address("23.153.8.71")
    return [
        upstream,
        PoisonedDNSServer(InterventionConfig(poison_address=poison), upstream.handle_query),
        RPZPolicyServer(RpzConfig(poison_address=poison), upstream.handle_query),
    ]


@given(data=garbage)
@settings(max_examples=200)
def test_dns_servers_never_crash(data):
    for server in make_dns_targets():
        result = server.handle_query(data)
        assert result is None or isinstance(result, bytes)


@given(data=garbage)
@settings(max_examples=200)
def test_dhcp_server_never_crashes(data):
    class Clock:
        def __call__(self):
            return 0.0

    server = DhcpServer(
        pool=DhcpPool(
            IPv4Network("192.168.12.0/24"),
            IPv4Address("192.168.12.50"),
            IPv4Address("192.168.12.99"),
        ),
        server_id=IPv4Address("192.168.12.250"),
        clock=Clock(),
    )
    result = server.handle_message(data)
    assert result is None or isinstance(result, bytes)


@given(frames=st.lists(garbage, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_host_stack_survives_garbage_frames(frames):
    """Deliver arbitrary bytes straight to a configured host's port."""
    engine = EventEngine(seed=5)
    host = ServerHost(
        engine,
        "victim",
        ipv4=IPv4Address("10.0.0.1"),
        ipv4_network=IPv4Network("10.0.0.0/24"),
        ipv6=IPv6Address("2001:db8::1"),
    )
    host.udp_serve(53, lambda payload, src, sport: b"ok")
    for frame in frames:
        host.port("eth0").deliver(frame)
    engine.run_for(0.1)


@given(frames=st.lists(garbage, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_switch_survives_garbage_frames(frames):
    engine = EventEngine(seed=6)
    switch = ManagedSwitch(engine, "sw")
    switch.snooper.enabled = True
    a = switch.add_port("p1")
    other = Host(engine, "peer")
    connect(engine, other.port("eth0"), switch.add_port("p2"))
    for frame in frames:
        switch.on_frame(a, frame)
    engine.run_for(0.1)


@given(data=garbage)
@settings(max_examples=100, deadline=None)
def test_gateway_survives_garbage_on_both_ports(data):
    from repro.sim.gateway5g import MobileGateway5G

    engine = EventEngine(seed=7)
    gateway = MobileGateway5G(engine)
    gateway.port("lan").deliver(data)
    gateway.port("wan").deliver(data)
    engine.run_for(0.1)


@given(
    valid_prefix=st.booleans(),
    payload=garbage,
)
@settings(max_examples=100, deadline=None)
def test_tcp_listener_survives_mid_stream_garbage(valid_prefix, payload):
    """A valid TCP handshake followed by garbage segments must not take
    down the listener."""
    engine = EventEngine(seed=8)
    switch = ManagedSwitch(engine, "sw")
    server = ServerHost(engine, "srv", ipv4=IPv4Address("10.0.0.1"),
                        ipv4_network=IPv4Network("10.0.0.0/24"))
    client = ServerHost(engine, "cli", ipv4=IPv4Address("10.0.0.2"),
                        ipv4_network=IPv4Network("10.0.0.0/24"))
    connect(engine, server.port("eth0"), switch.add_port("p1"))
    connect(engine, client.port("eth0"), switch.add_port("p2"))
    server.tcp_listen(80, lambda conn: None)
    conn = client.tcp_connect(IPv4Address("10.0.0.1"), 80)
    assert conn is not None
    if valid_prefix:
        conn.send(b"hello")
    # Now inject raw garbage as if it were a TCP payload frame.
    server.port("eth0").deliver(payload)
    engine.run_for(0.2)
    # The server is still able to accept a fresh connection.
    conn2 = client.tcp_connect(IPv4Address("10.0.0.1"), 80)
    assert conn2 is not None


def _lying_l4(proto, src, dst):
    """A checksum-valid L4 header whose length field lies: a 20-byte TCP
    header whose data offset says 15 words, or a UDP header whose length
    says 4."""
    if proto == IPProto.TCP:
        header = bytearray(struct.pack("!HHIIBBHHH", 80, 40000, 1, 0, 0xF0, 0x10, 65535, 0, 0))
        at = 16
    else:
        header = bytearray(struct.pack("!HHHH", 53, 40000, 4, 0))
        at = 6
    pseudo = pseudo_sum_v4 if isinstance(src, IPv4Address) else pseudo_sum_v6
    checksum = internet_checksum(bytes(header), pseudo(src, dst, proto, len(header)))
    header[at : at + 2] = checksum.to_bytes(2, "big")
    return bytes(header)


@pytest.mark.parametrize(
    "site, proto",
    [("nat64", IPProto.TCP), ("nat44", IPProto.TCP), ("clat", IPProto.TCP), ("clat", IPProto.UDP)],
    ids=["nat64-tcp", "nat44-tcp", "clat-tcp", "clat-udp"],
)
def test_malformed_l4_behind_a_translator_is_dropped(site, proto):
    """A checksum-valid packet whose L4 length field lies ends as a drop
    at each translator that decodes it: the gateway's NAT64 and NAT44
    on the internet side, a host's CLAT on the IPv6 wire.  Nothing is
    forwarded, queued or counted as translated."""
    testbed = build_testbed(TestbedConfig())
    gateway = testbed.gateway
    if site == "clat":
        host = testbed.add_client(WINDOWS_11_RFC8925, "w11").host
        src, dst = embed_ipv4_in_nat64(SC24_WEB_V4), host.clat.config.clat_ipv6
        packet = IPv6Packet(src, dst, proto, _lying_l4(proto, src, dst)).encode()
        frame = EthernetFrame(host.mac, gateway.lan_iface.mac, EtherType.IPV6, packet)
        port = out = host.port("eth0")
        translator = host.clat
    else:
        src = SC24_WEB_V4
        dst = gateway.config.wan_ipv4_nat64 if site == "nat64" else gateway.config.wan_ipv4_nat44
        packet = IPv4Packet(src, dst, proto, _lying_l4(proto, src, dst)).encode()
        frame = EthernetFrame(gateway.wan_iface.mac, testbed.sc24_web.mac, EtherType.IPV4, packet)
        port, out = gateway.port("wan"), gateway.port("lan")
        translator = gateway.nat64 if site == "nat64" else gateway.nat44
    before = (out.tx_frames, testbed.engine.pending_events, translator.translated_in)
    port.deliver(frame.encode())
    assert (out.tx_frames, testbed.engine.pending_events, translator.translated_in) == before
