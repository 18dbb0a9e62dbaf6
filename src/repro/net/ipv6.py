"""IPv6 (RFC 8200) packet codec.

Extension headers are not modelled (the testbed's traffic — NDP, DNS over
UDP, TCP-lite HTTP, ping — never uses them); the fixed 40-byte header is
encoded and decoded exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from repro.net.addresses import IPv6Address

__all__ = ["IPv6Packet", "encode_ipv6"]

_HEADER = struct.Struct("!IHBB16s16s")


@dataclass(frozen=True)
class IPv6Packet:
    """An IPv6 packet with the fixed header of RFC 8200 §3."""

    src: IPv6Address
    dst: IPv6Address
    next_header: int
    payload: bytes
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    HEADER_LEN = 40

    def __post_init__(self) -> None:
        if not 0 <= self.flow_label < 1 << 20:
            raise ValueError(f"flow label out of range: {self.flow_label}")
        if not 0 <= self.traffic_class < 256:
            raise ValueError(f"traffic class out of range: {self.traffic_class}")

    def encode(self) -> bytes:
        return encode_ipv6(
            self.src,
            self.dst,
            self.next_header,
            self.payload,
            self.hop_limit,
            self.traffic_class,
            self.flow_label,
        )

    @classmethod
    def decode(cls, data: bytes) -> "IPv6Packet":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"IPv6 packet too short: {len(data)} bytes")
        vtf, payload_len, next_header, hop_limit = struct.unpack("!IHBB", data[:8])
        version = vtf >> 28
        if version != 6:
            raise ValueError(f"not an IPv6 packet (version={version})")
        if len(data) < cls.HEADER_LEN + payload_len:
            raise ValueError("IPv6 payload truncated")
        return cls(
            src=IPv6Address(data[8:24]),
            dst=IPv6Address(data[24:40]),
            next_header=next_header,
            payload=bytes(data[40 : 40 + payload_len]),
            hop_limit=hop_limit,
            traffic_class=(vtf >> 20) & 0xFF,
            flow_label=vtf & 0xFFFFF,
        )

    def decremented(self) -> "IPv6Packet":
        """A copy with hop limit reduced by one (router forwarding)."""
        if self.hop_limit <= 1:
            raise ValueError("hop limit expired")
        return replace(self, hop_limit=self.hop_limit - 1)


def encode_ipv6(
    src: IPv6Address,
    dst: IPv6Address,
    next_header: int,
    payload: bytes,
    hop_limit: int = 64,
    traffic_class: int = 0,
    flow_label: int = 0,
) -> bytes:
    """The wire bytes of an IPv6 packet: byte-identical to
    ``IPv6Packet(...).encode()`` with the same fields, without building
    the record (or its range checks on the traffic class and flow label)."""
    return (
        _HEADER.pack(
            (6 << 28) | (traffic_class << 20) | flow_label,
            len(payload),
            next_header,
            hop_limit,
            src.packed,
            dst.packed,
        )
        + payload
    )
