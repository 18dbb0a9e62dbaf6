"""Lazy, zero-copy views over Ethernet and IP wire bytes: the one
decoded form of a packet in the simulator.

Packets are built straight to wire bytes (:func:`repro.net.ipv4.encode_ipv4`,
:func:`repro.net.ipv6.encode_ipv6` and the transport builders beside
them), and everything that reads a packet back reads it through the
classes here: the L2 interfaces and the nodes above them, the
translators, the DHCP snooper and the packet trace.  A view keeps the
wire bytes and decodes individual fields on first access, caching the
result in ``__slots__``.  The translators (NAT64, NAT44, CLAT/SIIT)
return views over the bytes they built.

The frozen records of :mod:`repro.net.ethernet`, :mod:`repro.net.ipv4`
and :mod:`repro.net.ipv6` remain the public field-by-field constructors
(and the reference the tests hold these views to).  Contracts kept
with them:

- construction performs the *same validation* as the record's
  ``decode()`` and raises :class:`ValueError` for the same malformed
  inputs (runt frames, bad version, bad IHL, bad header checksum,
  fragments, truncated payloads);
- attribute names match the records', so a consumer reads either;
- ``encode()`` returns the wire bytes (trimmed to the declared length),
  byte-identical to the record's ``decode(...).encode()`` round trip for
  anything the simulator builds;
- a view is read-only: ``decremented()`` returns a new view, so the
  decode caches below can hand one view to every receiver.

Address objects are interned: the simulator sees the same few hundred
MACs and IPs millions of times, so a dict lookup replaces repeated
``ipaddress`` constructor calls (the single hottest line in the seed
profile after the checksum loop).
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional

from repro.net.addresses import IPv4Address, IPv6Address, MacAddress
from repro.net.checksum import internet_checksum, verify_checksum
from repro.net.ethernet import EthernetFrame
from repro.net.icmpv6 import decode_icmpv6
from repro.net.ipv4 import IPv4Packet
from repro.net.ipv6 import IPv6Packet

__all__ = [
    "LazyEthernetFrame",
    "LazyIPv4Packet",
    "LazyIPv6Packet",
    "decode_ipv4_cached",
    "decode_ipv6_cached",
    "intern_mac",
    "intern_ipv4",
    "intern_ipv6",
]

# -- address interning --------------------------------------------------------

#: Safety valve: a simulation run touches a few thousand distinct
#: addresses at most; fuzzed traffic could otherwise grow these
#: unboundedly.
_INTERN_LIMIT = 1 << 16

_mac_cache: Dict[bytes, MacAddress] = {}
_v4_cache: Dict[bytes, IPv4Address] = {}
_v6_cache: Dict[bytes, IPv6Address] = {}


def intern_mac(raw: bytes) -> MacAddress:
    """A :class:`MacAddress` for 6 wire bytes, cached across calls."""
    mac = _mac_cache.get(raw)
    if mac is None:
        if len(_mac_cache) >= _INTERN_LIMIT:
            _mac_cache.clear()
        mac = _mac_cache[raw] = MacAddress.from_bytes(raw)
    return mac


def intern_ipv4(raw: bytes) -> IPv4Address:
    """An :class:`IPv4Address` for 4 wire bytes, cached across calls."""
    addr = _v4_cache.get(raw)
    if addr is None:
        if len(_v4_cache) >= _INTERN_LIMIT:
            _v4_cache.clear()
        addr = _v4_cache[raw] = IPv4Address(raw)
    return addr


def intern_ipv6(raw: bytes) -> IPv6Address:
    """An :class:`IPv6Address` for 16 wire bytes, cached across calls."""
    addr = _v6_cache.get(raw)
    if addr is None:
        if len(_v6_cache) >= _INTERN_LIMIT:
            _v6_cache.clear()
        addr = _v6_cache[raw] = IPv6Address(raw)
    return addr


# -- Ethernet -----------------------------------------------------------------


class LazyEthernetFrame:
    """A received Ethernet II frame decoded field-by-field on access."""

    __slots__ = ("_wire", "_dst", "_src", "_payload")

    HEADER_LEN = EthernetFrame.HEADER_LEN

    def __init__(self, data: bytes) -> None:
        if len(data) < self.HEADER_LEN:
            raise ValueError(f"Ethernet frame too short: {len(data)} bytes")
        self._wire = bytes(data)
        self._dst: Optional[MacAddress] = None
        self._src: Optional[MacAddress] = None
        self._payload: Optional[bytes] = None

    @classmethod
    def decode(cls, data: bytes) -> "LazyEthernetFrame":
        """Mirror of :meth:`EthernetFrame.decode` (same validation)."""
        return cls(data)

    @property
    def dst(self) -> MacAddress:
        dst = self._dst
        if dst is None:
            dst = self._dst = intern_mac(self._wire[0:6])
        return dst

    @property
    def src(self) -> MacAddress:
        src = self._src
        if src is None:
            src = self._src = intern_mac(self._wire[6:12])
        return src

    @property
    def dst_bytes(self) -> bytes:
        """The destination MAC as raw bytes — lets hot receive paths
        filter frames without constructing a :class:`MacAddress`."""
        return self._wire[0:6]

    @property
    def ethertype(self) -> int:
        wire = self._wire
        return (wire[12] << 8) | wire[13]

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:
            payload = self._payload = self._wire[14:]
        return payload

    @property
    def is_broadcast(self) -> bool:
        return self._wire[0:6] == b"\xff\xff\xff\xff\xff\xff"

    @property
    def is_multicast(self) -> bool:
        return bool(self._wire[0] & 1)

    def encode(self) -> bytes:
        return self._wire

    def __len__(self) -> int:
        return len(self._wire)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyEthernetFrame):
            return self._wire == other._wire
        if isinstance(other, EthernetFrame):
            return self._wire == other.encode()
        return NotImplemented

    def __repr__(self) -> str:
        return f"LazyEthernetFrame(dst={self.dst}, src={self.src}, ethertype={self.ethertype:#06x})"


# -- IPv4 ---------------------------------------------------------------------


class LazyIPv4Packet:
    """A received IPv4 packet; header ints are parsed up front (they come
    out of one cheap ``struct.unpack`` that validation needs anyway),
    address objects and the payload slice are built on first access."""

    __slots__ = (
        "_wire",
        "_header_len",
        "_src",
        "_dst",
        "_payload",
        "proto",
        "ttl",
        "tos",
        "identification",
        "_flags_frag",
    )

    MIN_HEADER_LEN = IPv4Packet.MIN_HEADER_LEN

    def __init__(self, data: bytes, verify: bool = True) -> None:
        if len(data) < self.MIN_HEADER_LEN:
            raise ValueError(f"IPv4 packet too short: {len(data)} bytes")
        ver_ihl, tos, total_len, ident, flags_frag, ttl, proto, _csum = struct.unpack(
            "!BBHHHBBH", data[:12]
        )
        version, ihl = ver_ihl >> 4, ver_ihl & 0x0F
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        header_len = ihl * 4
        if header_len < self.MIN_HEADER_LEN or len(data) < header_len:
            raise ValueError(f"bad IPv4 IHL: {ihl}")
        if total_len < header_len or total_len > len(data):
            raise ValueError(f"bad IPv4 total length: {total_len}")
        if verify and not verify_checksum(data[:header_len]):
            raise ValueError("IPv4 header checksum mismatch")
        if flags_frag & 0x3FFF and not flags_frag & 0x4000:
            raise ValueError("IPv4 fragments are not supported by this testbed")
        self._wire = bytes(data[:total_len])
        self._header_len: int = header_len
        self.proto: int = proto
        self.ttl: int = ttl
        self.tos: int = tos
        self.identification: int = ident
        self._flags_frag: int = flags_frag
        self._src: Optional[IPv4Address] = None
        self._dst: Optional[IPv4Address] = None
        self._payload: Optional[bytes] = None

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "LazyIPv4Packet":
        """Mirror of :meth:`IPv4Packet.decode` (same validation)."""
        return cls(data, verify=verify)

    @property
    def src(self) -> IPv4Address:
        src = self._src
        if src is None:
            src = self._src = intern_ipv4(self._wire[12:16])
        return src

    @property
    def dst(self) -> IPv4Address:
        dst = self._dst
        if dst is None:
            dst = self._dst = intern_ipv4(self._wire[16:20])
        return dst

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:
            payload = self._payload = self._wire[self._header_len:]
        return payload

    @property
    def dont_fragment(self) -> bool:
        return bool(self._flags_frag & 0x4000)

    @property
    def options(self) -> bytes:
        return self._wire[self.MIN_HEADER_LEN : self._header_len]

    @property
    def header_len(self) -> int:
        return self._header_len

    @property
    def total_length(self) -> int:
        return len(self._wire)

    def encode(self) -> bytes:
        return self._wire

    def decremented(self) -> "LazyIPv4Packet":
        """A copy with TTL reduced by one (router forwarding).

        Patches the TTL byte in place and recomputes the header checksum
        from scratch (not incrementally), so the result is byte-identical
        to the eager ``replace(ttl=ttl-1).encode()`` path.
        """
        if self.ttl <= 1:
            raise ValueError("TTL expired")
        buf = bytearray(self._wire)
        buf[8] -= 1
        buf[10:12] = b"\x00\x00"
        header_len = self._header_len
        csum = internet_checksum(bytes(buf[:header_len]))
        buf[10] = csum >> 8
        buf[11] = csum & 0xFF
        clone = LazyIPv4Packet(bytes(buf), verify=False)
        clone._src = self._src
        clone._dst = self._dst
        clone._payload = self._payload
        return clone

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyIPv4Packet):
            return self._wire == other._wire
        if isinstance(other, IPv4Packet):
            return self._wire == other.encode()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"LazyIPv4Packet(src={self.src}, dst={self.dst}, "
            f"proto={self.proto}, ttl={self.ttl})"
        )


# -- IPv6 ---------------------------------------------------------------------


class LazyIPv6Packet:
    """A received IPv6 packet with the fixed RFC 8200 header, decoded
    lazily.  Trailing bytes beyond the declared payload length are
    trimmed, matching the eager decoder."""

    __slots__ = (
        "_wire",
        "_src",
        "_dst",
        "_payload",
        "_icmpv6",
        "next_header",
        "hop_limit",
        "traffic_class",
        "flow_label",
    )

    HEADER_LEN = IPv6Packet.HEADER_LEN

    def __init__(self, data: bytes) -> None:
        if len(data) < self.HEADER_LEN:
            raise ValueError(f"IPv6 packet too short: {len(data)} bytes")
        vtf, payload_len, next_header, hop_limit = struct.unpack("!IHBB", data[:8])
        version = vtf >> 28
        if version != 6:
            raise ValueError(f"not an IPv6 packet (version={version})")
        if len(data) < self.HEADER_LEN + payload_len:
            raise ValueError("IPv6 payload truncated")
        self._wire = bytes(data[: self.HEADER_LEN + payload_len])
        self.next_header: int = next_header
        self.hop_limit: int = hop_limit
        self.traffic_class: int = (vtf >> 20) & 0xFF
        self.flow_label: int = vtf & 0xFFFFF
        self._src: Optional[IPv6Address] = None
        self._dst: Optional[IPv6Address] = None
        self._payload: Optional[bytes] = None
        self._icmpv6: Any = None

    @classmethod
    def decode(cls, data: bytes) -> "LazyIPv6Packet":
        """Mirror of :meth:`IPv6Packet.decode` (same validation)."""
        return cls(data)

    @property
    def src(self) -> IPv6Address:
        src = self._src
        if src is None:
            src = self._src = intern_ipv6(self._wire[8:24])
        return src

    @property
    def dst(self) -> IPv6Address:
        dst = self._dst
        if dst is None:
            dst = self._dst = intern_ipv6(self._wire[24:40])
        return dst

    @property
    def payload(self) -> bytes:
        payload = self._payload
        if payload is None:
            payload = self._payload = self._wire[40:]
        return payload

    def icmpv6(self) -> Any:
        """The ICMPv6 message this packet carries, checksum-verified by
        :func:`decode_icmpv6` on the first call and kept.  The decode
        cache hands every receiver of a flooded frame this same packet,
        so receivers after the first get the message without decoding
        or probing the ICMPv6 decode cache.  A malformed message raises
        :class:`ValueError` on every call."""
        message = self._icmpv6
        if message is None:
            message = self._icmpv6 = decode_icmpv6(self.payload, self.src, self.dst)
        return message

    def encode(self) -> bytes:
        return self._wire

    def decremented(self) -> "LazyIPv6Packet":
        """A copy with hop limit reduced by one (router forwarding)."""
        if self.hop_limit <= 1:
            raise ValueError("hop limit expired")
        buf = bytearray(self._wire)
        buf[7] -= 1
        clone = LazyIPv6Packet(bytes(buf))
        clone._src = self._src
        clone._dst = self._dst
        clone._payload = self._payload
        return clone

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LazyIPv6Packet):
            return self._wire == other._wire
        if isinstance(other, IPv6Packet):
            return self._wire == other.encode()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"LazyIPv6Packet(src={self.src}, dst={self.dst}, "
            f"next_header={self.next_header}, hop_limit={self.hop_limit})"
        )


# -- shared decode caches -----------------------------------------------------
#
# A broadcast/multicast frame is delivered to every node on the segment,
# and each receiver would otherwise re-validate the same header checksum
# and rebuild the same packet view.  Lazy packets are read-only (every
# mutation path returns a fresh instance), so decoded views can be shared
# across receivers.  Only successful decodes are cached; malformed input
# re-raises on every call.

_V4_DECODE_CACHE: Dict[bytes, LazyIPv4Packet] = {}
_V6_DECODE_CACHE: Dict[bytes, LazyIPv6Packet] = {}
_PACKET_CACHE_LIMIT = 8192


def decode_ipv4_cached(data: bytes) -> LazyIPv4Packet:
    """Verified :class:`LazyIPv4Packet` decode, shared per wire bytes."""
    # EAFP subscript: the hit path (the overwhelming majority — every
    # receiver of a flooded frame after the first) costs one dict op.
    try:
        return _V4_DECODE_CACHE[data]
    except KeyError:
        pass
    key = bytes(data)
    packet = LazyIPv4Packet(key)
    if len(_V4_DECODE_CACHE) >= _PACKET_CACHE_LIMIT:
        _V4_DECODE_CACHE.clear()
    _V4_DECODE_CACHE[key] = packet
    return packet


def decode_ipv6_cached(data: bytes) -> LazyIPv6Packet:
    """:class:`LazyIPv6Packet` decode, shared per wire bytes."""
    try:
        return _V6_DECODE_CACHE[data]
    except KeyError:
        pass
    key = bytes(data)
    packet = LazyIPv6Packet(key)
    if len(_V6_DECODE_CACHE) >= _PACKET_CACHE_LIMIT:
        _V6_DECODE_CACHE.clear()
    _V6_DECODE_CACHE[key] = packet
    return packet

