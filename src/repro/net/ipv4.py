"""IPv4 (RFC 791) packet codec with a real header checksum.

Options are carried opaquely (the testbed never emits them but the codec
round-trips them); fragmentation is not modelled — the simulator uses a
uniform 1500-byte MTU and the protocols above it stay well below that.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace

from repro.net.addresses import IPv4Address
from repro.net.checksum import internet_checksum, verify_checksum

__all__ = ["IPProto", "IPv4Packet", "encode_ipv4"]

_HEADER = struct.Struct("!BBHHHBBH4s4s")


class IPProto(enum.IntEnum):
    """IP protocol numbers used in the testbed."""

    ICMP = 1
    TCP = 6
    UDP = 17
    ICMPV6 = 58


@dataclass(frozen=True)
class IPv4Packet:
    """An IPv4 packet. ``encode()`` computes the header checksum."""

    src: IPv4Address
    dst: IPv4Address
    proto: int
    payload: bytes
    ttl: int = 64
    tos: int = 0
    identification: int = 0
    dont_fragment: bool = True
    options: bytes = field(default=b"")

    MIN_HEADER_LEN = 20

    def __post_init__(self) -> None:
        if len(self.options) % 4:
            raise ValueError("IPv4 options must be padded to 32-bit words")
        if len(self.options) > 40:
            raise ValueError("IPv4 options exceed 40 bytes")

    @property
    def header_len(self) -> int:
        return self.MIN_HEADER_LEN + len(self.options)

    @property
    def total_length(self) -> int:
        return self.header_len + len(self.payload)

    def encode(self) -> bytes:
        return encode_ipv4(
            self.src,
            self.dst,
            self.proto,
            self.payload,
            self.ttl,
            self.tos,
            self.identification,
            self.dont_fragment,
            self.options,
        )

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "IPv4Packet":
        if len(data) < cls.MIN_HEADER_LEN:
            raise ValueError(f"IPv4 packet too short: {len(data)} bytes")
        ver_ihl, tos, total_len, ident, flags_frag, ttl, proto, _csum = struct.unpack(
            "!BBHHHBBH", data[:12]
        )
        version, ihl = ver_ihl >> 4, ver_ihl & 0x0F
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        header_len = ihl * 4
        if header_len < cls.MIN_HEADER_LEN or len(data) < header_len:
            raise ValueError(f"bad IPv4 IHL: {ihl}")
        if total_len < header_len or total_len > len(data):
            raise ValueError(f"bad IPv4 total length: {total_len}")
        if verify and not verify_checksum(data[:header_len]):
            raise ValueError("IPv4 header checksum mismatch")
        if flags_frag & 0x3FFF and not flags_frag & 0x4000:
            raise ValueError("IPv4 fragments are not supported by this testbed")
        return cls(
            src=IPv4Address(data[12:16]),
            dst=IPv4Address(data[16:20]),
            proto=proto,
            payload=bytes(data[header_len:total_len]),
            ttl=ttl,
            tos=tos,
            identification=ident,
            dont_fragment=bool(flags_frag & 0x4000),
            options=bytes(data[cls.MIN_HEADER_LEN:header_len]),
        )

    def decremented(self) -> "IPv4Packet":
        """A copy with TTL reduced by one (router forwarding)."""
        if self.ttl <= 1:
            raise ValueError("TTL expired")
        return replace(self, ttl=self.ttl - 1)


def encode_ipv4(
    src: IPv4Address,
    dst: IPv4Address,
    proto: int,
    payload: bytes,
    ttl: int = 64,
    tos: int = 0,
    identification: int = 0,
    dont_fragment: bool = True,
    options: bytes = b"",
) -> bytes:
    """The wire bytes of an IPv4 packet, header checksum included.

    Byte-identical to ``IPv4Packet(...).encode()`` with the same fields,
    without building the record.  ``options`` must already be padded to
    32-bit words (the record checks that; received options always are).
    """
    ihl = 5 + len(options) // 4
    length = 4 * ihl + len(payload)
    df = 0x4000 if dont_fragment else 0
    src_packed, dst_packed = src.packed, dst.packed
    header = _HEADER.pack(
        0x40 | ihl, tos, length, identification, df, ttl, proto, 0, src_packed, dst_packed
    )
    checksum = internet_checksum(header + options)
    header = _HEADER.pack(
        0x40 | ihl, tos, length, identification, df, ttl, proto, checksum, src_packed, dst_packed
    )
    return header + options + payload
