"""Laziness must be invisible: a lazy view re-encodes byte-identically
to the eager codec, exposes the same fields, and rejects the same
malformed input.  The shared decode caches may return one instance to
many receivers, so anything they hand out has to behave as immutable."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.arp import ArpOp, ArpPacket
from repro.net.ethernet import EthernetFrame
from repro.net.ipv4 import IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.lazy import (
    decode_ipv4_cached,
    decode_ipv6_cached,
    LazyEthernetFrame,
    LazyIPv4Packet,
    LazyIPv6Packet,
)
from repro.net.udp import UdpDatagram

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
v4_addrs = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
v6_addrs = st.integers(min_value=0, max_value=(1 << 128) - 1).map(IPv6Address)
ports = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=256)
garbage = st.binary(min_size=0, max_size=120)

V4_FIELDS = ("src", "dst", "proto", "payload", "ttl", "tos", "identification",
             "dont_fragment", "options")
V6_FIELDS = ("src", "dst", "next_header", "payload", "hop_limit", "traffic_class",
             "flow_label")


def fields(packet, names):
    return tuple(getattr(packet, name) for name in names)


@given(dst=macs, src=macs, ethertype=ports, payload=payloads)
def test_lazy_ethernet_matches_eager(dst, src, ethertype, payload):
    wire = EthernetFrame(dst, src, ethertype, payload).encode()
    lazy = LazyEthernetFrame.decode(wire)
    eager = EthernetFrame.decode(wire)
    assert lazy.encode() == wire
    assert (lazy.dst, lazy.src, lazy.ethertype) == (eager.dst, eager.src, eager.ethertype)
    assert bytes(lazy.payload) == eager.payload
    assert lazy.dst_bytes == eager.dst_bytes
    assert lazy == eager


@given(src=v4_addrs, dst=v4_addrs, proto=st.integers(0, 255), payload=payloads,
       ttl=st.integers(1, 255), ident=ports)
def test_lazy_ipv4_matches_eager(src, dst, proto, payload, ttl, ident):
    wire = IPv4Packet(src, dst, proto, payload, ttl=ttl, identification=ident).encode()
    lazy = LazyIPv4Packet.decode(wire)
    eager = IPv4Packet.decode(wire)
    assert lazy.encode() == wire
    assert (lazy.src, lazy.dst, lazy.proto, lazy.ttl) == (
        eager.src, eager.dst, eager.proto, eager.ttl)
    assert bytes(lazy.payload) == eager.payload
    assert fields(lazy, V4_FIELDS) == fields(eager, V4_FIELDS)
    assert lazy == eager


@given(src=v6_addrs, dst=v6_addrs, nh=st.integers(0, 255), payload=payloads,
       hop=st.integers(0, 255), tc=st.integers(0, 255), fl=st.integers(0, (1 << 20) - 1))
def test_lazy_ipv6_matches_eager(src, dst, nh, payload, hop, tc, fl):
    wire = IPv6Packet(src, dst, nh, payload, hop_limit=hop, traffic_class=tc,
                      flow_label=fl).encode()
    lazy = LazyIPv6Packet.decode(wire)
    eager = IPv6Packet.decode(wire)
    assert lazy.encode() == wire
    assert (lazy.src, lazy.dst, lazy.next_header, lazy.hop_limit) == (
        eager.src, eager.dst, eager.next_header, eager.hop_limit)
    assert fields(lazy, V6_FIELDS) == fields(eager, V6_FIELDS)
    assert lazy == eager


@given(data=garbage)
def test_lazy_ethernet_rejects_what_eager_rejects(data):
    try:
        EthernetFrame.decode(data)
    except ValueError:
        with pytest.raises(ValueError):
            LazyEthernetFrame.decode(data)
    else:
        assert LazyEthernetFrame.decode(data).encode() == bytes(data)


@given(data=garbage)
def test_lazy_ipv4_rejects_what_eager_rejects(data):
    try:
        eager = IPv4Packet.decode(data)
    except ValueError:
        with pytest.raises(ValueError):
            LazyIPv4Packet.decode(data)
    else:
        assert fields(LazyIPv4Packet.decode(data), V4_FIELDS) == fields(eager, V4_FIELDS)


@given(data=garbage)
def test_lazy_ipv6_rejects_what_eager_rejects(data):
    try:
        eager = IPv6Packet.decode(data)
    except ValueError:
        with pytest.raises(ValueError):
            LazyIPv6Packet.decode(data)
    else:
        assert fields(LazyIPv6Packet.decode(data), V6_FIELDS) == fields(eager, V6_FIELDS)


@given(src=v4_addrs, dst=v4_addrs, ttl=st.integers(2, 255), payload=payloads)
def test_lazy_ipv4_decrement_matches_eager_replace(src, dst, ttl, payload):
    """Router forwarding must stay wire-identical between codecs."""
    import dataclasses

    eager = IPv4Packet(src, dst, 17, payload, ttl=ttl)
    wire = eager.encode()
    expected = dataclasses.replace(eager, ttl=ttl - 1).encode()
    assert LazyIPv4Packet.decode(wire).decremented().encode() == expected


class TestSharedDecodeCaches:
    def test_ipv4_cache_shares_one_instance_per_wire(self):
        wire = IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 17,
                          b"payload").encode()
        assert decode_ipv4_cached(wire) is decode_ipv4_cached(wire)
        assert decode_ipv4_cached(wire).encode() == wire

    def test_ipv6_cache_shares_one_instance_per_wire(self):
        wire = IPv6Packet(IPv6Address("2001:db8::1"), IPv6Address("2001:db8::2"),
                          17, b"payload").encode()
        assert decode_ipv6_cached(wire) is decode_ipv6_cached(wire)
        assert decode_ipv6_cached(wire).encode() == wire

    def test_cached_decrement_leaves_original_untouched(self):
        wire = IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 17,
                          b"x", ttl=64).encode()
        original = decode_ipv4_cached(wire)
        forwarded = original.decremented()
        assert forwarded is not original
        assert original.ttl == 64 and forwarded.ttl == 63
        assert decode_ipv4_cached(wire).ttl == 64

    def test_malformed_input_not_cached(self):
        with pytest.raises(ValueError):
            decode_ipv4_cached(b"\x00" * 20)
        with pytest.raises(ValueError):  # still raises on the second call
            decode_ipv4_cached(b"\x00" * 20)

    def test_udp_cache_shares_one_instance(self):
        src, dst = IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2")
        wire = UdpDatagram(68, 67, b"dhcp").encode(src, dst)
        first = UdpDatagram.decode(wire, src, dst)
        assert UdpDatagram.decode(wire, src, dst) is first
        # Different pseudo-header means a different cache entry.
        other = IPv4Address("10.0.0.3")
        rewire = UdpDatagram(68, 67, b"dhcp").encode(src, other)
        assert UdpDatagram.decode(rewire, src, other) is not first

    def test_arp_cache_shares_one_instance(self):
        packet = ArpPacket.request(MacAddress(0x020000000001),
                                   IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"))
        wire = packet.encode()
        first = ArpPacket.decode(wire)
        assert ArpPacket.decode(wire) is first
        assert first == packet and first.op is ArpOp.REQUEST
