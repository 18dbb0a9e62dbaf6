"""The wire builders against the record encoders they replace.

The simulator builds every packet straight to bytes with
``encode_ipv4``/``encode_ipv6``/``encode_tcp``/``encode_udp``.  The
``reference_*`` functions below are the records' ``encode()`` bodies as
they stood before the builders existed, kept verbatim so the builders
(which the records now delegate to) are checked against an independent
implementation, byte for byte.  The last properties check that a record
a decoder builds without the generated ``__init__`` is equal to the one
``__init__`` builds.
"""

import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.dhcp.message import DhcpMessage
from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.checksum import internet_checksum, ones_complement_sum
from repro.net.ipv4 import encode_ipv4, IPv4Packet
from repro.net.ipv6 import encode_ipv6, IPv6Packet
from repro.net.tcp import _pseudo_sum as tcp_pseudo_sum
from repro.net.tcp import encode_tcp, TcpFlags, TcpSegment
from repro.net.udp import _pseudo_sum as udp_pseudo_sum
from repro.net.udp import encode_udp, UdpDatagram

v4_addrs = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
v6_addrs = st.integers(min_value=0, max_value=(1 << 128) - 1).map(IPv6Address)
#: A (src, dst) pair of one address family.
address_pairs = st.one_of(st.tuples(v4_addrs, v4_addrs), st.tuples(v6_addrs, v6_addrs))
ports = st.integers(min_value=0, max_value=0xFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
payloads = st.binary(max_size=300)
#: IPv4 options: up to 40 bytes, padded to 32-bit words.
options = st.integers(min_value=0, max_value=10).flatmap(
    lambda words: st.binary(min_size=4 * words, max_size=4 * words)
)


# -- the reference encoders: the record encode() bodies, verbatim -------------


def reference_ipv4(self):
    ihl = self.header_len // 4
    flags_frag = 0x4000 if self.dont_fragment else 0
    header = bytearray(
        struct.pack(
            "!BBHHHBBH4s4s",
            (4 << 4) | ihl,
            self.tos,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.proto,
            0,
            self.src.packed,
            self.dst.packed,
        )
    )
    header += self.options
    csum = internet_checksum(bytes(header))
    header[10:12] = csum.to_bytes(2, "big")
    return bytes(header) + self.payload


def reference_ipv6(self):
    vtf = (6 << 28) | (self.traffic_class << 20) | self.flow_label
    return (
        struct.pack("!IHBB", vtf, len(self.payload), self.next_header, self.hop_limit)
        + self.src.packed
        + self.dst.packed
        + self.payload
    )


def reference_tcp(self, src_ip, dst_ip):
    data_offset = (self.HEADER_LEN // 4) << 4
    header = struct.pack(
        "!HHIIBBHHH",
        self.src_port,
        self.dst_port,
        self.seq,
        self.ack,
        data_offset,
        int(self.flags),
        self.window,
        0,
        0,
    )
    length = len(header) + len(self.payload)
    csum = internet_checksum(header + self.payload, tcp_pseudo_sum(src_ip, dst_ip, 6, length))
    header = header[:16] + csum.to_bytes(2, "big") + header[18:]
    return header + self.payload


def reference_udp(self, src_ip, dst_ip):
    header = struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)
    csum = internet_checksum(header + self.payload, udp_pseudo_sum(src_ip, dst_ip, 17, self.length))
    if csum == 0:
        csum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
    return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, csum) + self.payload


# -- one property per builder ----------------------------------------------------


@given(src=v4_addrs, dst=v4_addrs, proto=u8, payload=payloads, ttl=u8, tos=u8, ident=ports,
       df=st.booleans(), opts=options)
def test_encode_ipv4_matches_reference(src, dst, proto, payload, ttl, tos, ident, df, opts):
    packet = IPv4Packet(src, dst, proto, payload, ttl=ttl, tos=tos, identification=ident,
                        dont_fragment=df, options=opts)
    wire = encode_ipv4(src, dst, proto, payload, ttl, tos, ident, df, opts)
    assert wire == reference_ipv4(packet)
    assert wire == packet.encode()
    assert IPv4Packet.decode(wire) == packet


@given(src=v6_addrs, dst=v6_addrs, nh=u8, payload=payloads, hop=u8, tc=u8,
       fl=st.integers(min_value=0, max_value=(1 << 20) - 1))
def test_encode_ipv6_matches_reference(src, dst, nh, payload, hop, tc, fl):
    packet = IPv6Packet(src, dst, nh, payload, hop_limit=hop, traffic_class=tc, flow_label=fl)
    wire = encode_ipv6(src, dst, nh, payload, hop, tc, fl)
    assert wire == reference_ipv6(packet)
    assert wire == packet.encode()
    assert IPv6Packet.decode(wire) == packet


@given(pair=address_pairs, sport=ports, dport=ports, seq=u32, ack=u32, flags=u8,
       window=ports, payload=payloads)
def test_encode_tcp_matches_reference(pair, sport, dport, seq, ack, flags, window, payload):
    src, dst = pair
    segment = TcpSegment(sport, dport, seq, ack, TcpFlags(flags), window, payload)
    wire = encode_tcp(src, dst, sport, dport, seq, ack, flags, window, payload)
    assert wire == reference_tcp(segment, src, dst)
    assert wire == segment.encode(src, dst)
    assert TcpSegment.decode(wire, src, dst) == segment


def _zero_checksum_payload(src, dst, sport, dport, prefix):
    """``prefix`` plus one word chosen so the datagram's ones-complement
    sum is 0xFFFF: its computed checksum is zero, which UDP sends as 0xFFFF."""
    prefix = prefix + b"\x00" * (len(prefix) % 2)
    length = 8 + len(prefix) + 2
    header = struct.pack("!HHHH", sport, dport, length, 0)
    partial = ones_complement_sum(header + prefix, udp_pseudo_sum(src, dst, 17, length))
    return prefix + (0xFFFF - partial).to_bytes(2, "big")


@given(pair=address_pairs, sport=ports, dport=ports, payload=payloads, force_zero=st.booleans())
def test_encode_udp_matches_reference(pair, sport, dport, payload, force_zero):
    src, dst = pair
    if force_zero:
        payload = _zero_checksum_payload(src, dst, sport, dport, payload)
    datagram = UdpDatagram(sport, dport, payload)
    wire = encode_udp(src, dst, sport, dport, payload)
    assert wire == reference_udp(datagram, src, dst)
    assert wire == datagram.encode(src, dst)
    if force_zero:
        assert wire[6:8] == b"\xff\xff"
    assert UdpDatagram.decode(wire, src, dst) == datagram


# -- records built without __init__ -----------------------------------------------


def _same_record(decoded, built):
    assert type(decoded) is type(built)
    assert decoded == built
    assert vars(decoded) == vars(built)
    assert repr(decoded) == repr(built)


@given(pair=address_pairs, sport=ports, dport=ports, seq=u32, ack=u32, flags=u8,
       window=ports, payload=payloads)
def test_tcp_decode_builds_the_record_init_builds(pair, sport, dport, seq, ack, flags, window,
                                                   payload):
    src, dst = pair
    built = TcpSegment(sport, dport, seq, ack, TcpFlags(flags), window, payload)
    decoded = TcpSegment.decode(built.encode(src, dst), src, dst)
    _same_record(decoded, built)
    assert hash(decoded) == hash(built)


#: Options in code order, the order the encoder writes them in.
dhcp_options = st.dictionaries(
    st.integers(min_value=1, max_value=254), st.binary(min_size=0, max_size=40), max_size=6
).map(lambda options: dict(sorted(options.items())))
macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)


@given(op=st.sampled_from([1, 2]), xid=u32, chaddr=macs, ciaddr=v4_addrs, yiaddr=v4_addrs,
       siaddr=v4_addrs, giaddr=v4_addrs, secs=ports, broadcast=st.booleans(),
       opts=dhcp_options)
def test_dhcp_decode_builds_the_record_init_builds(op, xid, chaddr, ciaddr, yiaddr, siaddr,
                                                    giaddr, secs, broadcast, opts):
    built = DhcpMessage(op=op, xid=xid, chaddr=chaddr, ciaddr=ciaddr, yiaddr=yiaddr,
                        siaddr=siaddr, giaddr=giaddr, secs=secs, broadcast=broadcast,
                        options=opts)
    _same_record(DhcpMessage.decode(built.encode()), built)
