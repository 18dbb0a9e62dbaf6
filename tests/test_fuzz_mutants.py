"""Decoder mutation fuzz: captured frames, mutated above L2.

Random bytes almost never get past a NIC's MAC filter, so they never
reach the L3 and L4 decoders.  These properties start from the frames
one probe scenario actually delivered, mutate each above the Ethernet
header (byte flips, truncation, insertion), repair the IPv4 header and
the UDP, TCP, ICMP and ICMPv6 checksums so the mutant gets past checksum
verification, and deliver it through the engine to the port that
received the original.  Whatever the mutant says, it must end as a
drop or as ordinary traffic: no exception may escape ``run_until``.

Each target runs a fixed, derandomized example budget against the live
testbed its scenario left behind, so a failure reproduces exactly.
"""

from typing import Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import given, HealthCheck, settings
from hypothesis import strategies as st

from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10, WINDOWS_11
from repro.core.testbed import build_testbed, Testbed, TestbedConfig
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from repro.net.checksum import internet_checksum, pseudo_sum_v4, pseudo_sum_v6
from repro.net.icmp import IcmpMessage
from repro.net.icmpv6 import decode_icmpv6
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.net.tcp import TcpSegment
from repro.net.udp import UdpDatagram
from repro.sim.engine import EventEngine
from repro.sim.host import ServerHost
from repro.sim.node import connect, Port
from repro.sim.router import Router
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace

#: Frames received per port: ``(port, frame bytes)``.
Capture = List[Tuple[Port, bytes]]

EXAMPLES = 150

_TCP, _UDP, _ICMP, _ICMPV6 = 6, 17, 1, 58
#: Where each transport keeps its checksum.
_CHECKSUM_AT = {_TCP: 16, _UDP: 6, _ICMP: 2, _ICMPV6: 2}
#: The shortest header that holds that checksum.
_MIN_LEN = {_TCP: 20, _UDP: 8, _ICMP: 4, _ICMPV6: 4}


def _received(ports: List[Port], trace: PacketTrace) -> Capture:
    """The frames ``trace`` saw arrive at any of ``ports``, in order."""
    by_name = {(port.node.name, port.name): port for port in ports}
    return [
        (by_name[(entry.node, entry.port)], entry.frame)
        for entry in trace.entries
        if entry.direction == "rx" and (entry.node, entry.port) in by_name
    ]


def probe_testbed():
    """The sanitizer probe's scenario: four attendees fetch the SC24 site."""
    testbed = build_testbed(TestbedConfig(capture_traffic=True))
    for index, profile in enumerate([NINTENDO_SWITCH, WINDOWS_10, WINDOWS_11, MACOS]):
        testbed.add_client(profile, f"san-{index}").fetch("sc24.supercomputing.org")
    return testbed


def routed_scenario() -> Tuple[EventEngine, Capture]:
    """Two LANs joined by a router: ping, a TCP exchange and a UDP
    exchange each way of both families cross it."""
    engine = EventEngine(seed=9)
    router = Router(engine, "edge")
    nets = []
    for index, side in enumerate(("inside", "outside"), start=1):
        v4 = IPv4Network(f"10.{index}.0.0/24")
        v6 = IPv6Network(f"2620:0:dc0:{index}::/64")
        router.add_interface(side, ipv4=(v4[1], v4), ipv6=(v6[1], v6))
        switch = ManagedSwitch(engine, f"sw-{side}")
        connect(engine, router.port(side), switch.add_port("p-r"))
        host = ServerHost(
            engine,
            f"{side}-host",
            ipv4=v4[10],
            ipv4_network=v4,
            ipv4_gateway=v4[1],
            ipv6=v6[0x10],
            ipv6_gateway=router.ifaces[side].link_local,
        )
        connect(engine, host.port("eth0"), switch.add_port("p-h"))
        nets.append(host)
    inside, outside = nets
    trace = PacketTrace(engine.clock)
    router.attach_trace(trace)
    outside.udp_serve(53, lambda payload, src, sport: payload)
    outside.tcp_listen(80, lambda conn: setattr(conn, "on_data", lambda c: c.send(c.read())))
    for dst in (IPv4Address("10.2.0.10"), IPv6Address("2620:0:dc0:2::10")):
        inside.ping(dst)
        inside.udp_exchange(dst, 53, b"query")
        conn = inside.tcp_connect(dst, 80)
        assert conn is not None
        conn.send(b"GET / HTTP/1.1\r\n\r\n")
        engine.run_for(0.1)
        conn.close()
        engine.run_for(0.1)
    inside.ping(IPv4Address("10.1.0.1"))
    router.attach_trace(None)
    return engine, _received(list(router.ports.values()), trace)


# -- mutation and checksum repair ------------------------------------------------


def _repair_l4(data: bytearray, start: int, end: int, proto: int, src, dst) -> None:
    at = _CHECKSUM_AT.get(proto)
    if at is None or end - start < _MIN_LEN[proto]:
        return
    if proto == _ICMPV6 and isinstance(src, IPv4Address):
        return
    if proto == _ICMP and isinstance(src, IPv6Address):
        return
    covered = end - start
    if proto == _UDP:
        length = int.from_bytes(data[start + 4 : start + 6], "big")
        if 8 <= length <= covered:
            covered = length
    data[start + at : start + at + 2] = b"\x00\x00"
    if proto == _ICMP:
        initial = 0
    elif isinstance(src, IPv4Address):
        initial = pseudo_sum_v4(src, dst, proto, covered)
    else:
        initial = pseudo_sum_v6(src, dst, proto, covered)
    checksum = internet_checksum(bytes(data[start : start + covered]), initial)
    if proto == _UDP and checksum == 0:
        checksum = 0xFFFF
    data[start + at : start + at + 2] = checksum.to_bytes(2, "big")


def repair(frame: bytearray) -> bytes:
    """Recompute the IPv4 header checksum and the transport checksum of
    whatever the mutant's headers now say, where they can be read."""
    ethertype = (frame[12] << 8) | frame[13] if len(frame) >= 14 else 0
    data = frame[14:]
    if ethertype == 0x0800 and len(data) >= 20 and data[0] >> 4 == 4:
        header_len = (data[0] & 0x0F) * 4
        if 20 <= header_len <= len(data):
            data[10:12] = b"\x00\x00"
            data[10:12] = internet_checksum(bytes(data[:header_len])).to_bytes(2, "big")
            total = int.from_bytes(data[2:4], "big")
            end = total if header_len <= total <= len(data) else len(data)
            src, dst = IPv4Address(bytes(data[12:16])), IPv4Address(bytes(data[16:20]))
            _repair_l4(data, header_len, end, data[9], src, dst)
    elif ethertype == 0x86DD and len(data) >= 40 and data[0] >> 4 == 6:
        length = int.from_bytes(data[4:6], "big")
        end = 40 + length if 40 + length <= len(data) else len(data)
        src, dst = IPv6Address(bytes(data[8:24])), IPv6Address(bytes(data[24:40]))
        _repair_l4(data, 40, end, data[6], src, dst)
    return bytes(frame[:14] + data)


_positions = st.integers(min_value=0, max_value=200)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), _positions, st.integers(min_value=1, max_value=255)),
        st.tuples(st.just("truncate"), _positions, st.just(0)),
        st.tuples(st.just("insert"), _positions, st.binary(min_size=1, max_size=8)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(frame: bytes, ops) -> bytes:
    """Apply ``ops`` to the bytes after the Ethernet header, then repair."""
    head, body = frame[:14], bytearray(frame[14:])
    for kind, position, value in ops:
        if kind == "flip" and body:
            body[position % len(body)] ^= value
        elif kind == "truncate":
            del body[position % (len(body) + 1) :]
        elif kind == "insert":
            at = position % (len(body) + 1)
            body[at:at] = value
    return repair(bytearray(head) + body)


def fuzz(engine: EventEngine, capture: Capture) -> None:
    """Deliver mutants of ``capture`` through ``engine``; fail on any
    exception out of the pump."""
    assert capture, "the scenario delivered no frame to this target"

    @settings(
        max_examples=EXAMPLES,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(index=st.integers(min_value=0, max_value=len(capture) - 1), ops=mutations)
    def deliver(index, ops):
        port, frame = capture[index]
        engine.schedule(0.0, port.deliver, mutate(frame, ops))
        engine.run_for(0.05)

    deliver()


#: The ports of each target node class in the probe testbed.
TESTBED_TARGETS: Dict[str, Callable[[Testbed], List[Port]]] = {
    "host": lambda testbed: [client.host.port("eth0") for client in testbed.clients],
    "switch": lambda testbed: list(testbed.switch.ports.values()),
    "gateway-lan": lambda testbed: [testbed.gateway.port("lan")],
    "gateway-wan": lambda testbed: [testbed.gateway.port("wan")],
    "pi": lambda testbed: [
        pi.port("eth0") for pi in (testbed.pi_dhcp, testbed.pi_healthy, testbed.pi_poison)
    ],
}


@pytest.mark.parametrize("target", sorted(TESTBED_TARGETS))
def test_mutated_probe_frames_end_as_drops(target):
    testbed = probe_testbed()
    fuzz(testbed.engine, _received(TESTBED_TARGETS[target](testbed), testbed.trace))


def test_mutated_routed_frames_end_as_drops():
    fuzz(*routed_scenario())


def _checksum_error(frame: bytes) -> Optional[str]:
    """The checksum complaint the IP view or the transport decoder
    raises on ``frame``, if any; other complaints are not the repair's
    concern."""
    ethertype = (frame[12] << 8) | frame[13]
    try:
        if ethertype == 0x0800:
            packet = LazyIPv4Packet(frame[14:])
            proto = packet.proto
        else:
            packet = LazyIPv6Packet(frame[14:])
            proto = packet.next_header
        if proto == _UDP:
            UdpDatagram.decode(packet.payload, packet.src, packet.dst)
        elif proto == _TCP:
            TcpSegment.decode(packet.payload, packet.src, packet.dst)
        elif proto == _ICMP:
            IcmpMessage.decode(packet.payload)
        elif proto == _ICMPV6:
            decode_icmpv6(packet.payload, packet.src, packet.dst)
    except ValueError as error:
        return str(error) if "checksum" in str(error) else None
    return None


def test_repair_leaves_no_checksum_to_reject():
    """Without the repair, the properties above would only exercise
    checksum verification: flipping a captured frame's last byte breaks
    its transport checksum, and the repair mends it."""
    _engine, capture = routed_scenario()
    frames = [frame for _port, frame in capture if frame[12:14] != b"\x08\x06"]
    assert {frame[12:14] for frame in frames} == {b"\x08\x00", b"\x86\xdd"}
    for frame in frames:
        flipped = bytearray(frame)
        flipped[-1] ^= 0x5A
        assert _checksum_error(bytes(flipped)), frame.hex()
        assert _checksum_error(mutate(frame, [("flip", len(frame) - 15, 0x5A)])) is None
