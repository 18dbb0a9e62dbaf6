"""TCP segment codec (RFC 9293 header format).

The segment format is byte-exact; the *state machine* lives in
:mod:`repro.sim.stack` and is a deliberately small subset (3-way
handshake, in-order data, FIN teardown, RST) — enough for the HTTP-lite
fetches, the test-ipv6.com probes and NAT64 session tracking the paper
exercises, and honest about what it is not.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Union

from repro.net.addresses import IPv4Address, IPv6Address
from repro.net.checksum import internet_checksum, pseudo_sum_v4, pseudo_sum_v6

__all__ = ["TcpFlags", "TcpSegment", "encode_tcp"]

Address = Union[IPv4Address, IPv6Address]

_HEADER = struct.Struct("!HHIIBBHHH")


class TcpFlags(enum.IntFlag):
    """TCP header flag bits (RFC 9293 §3.1)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


# IntFlag's constructor walks the enum machinery; a 256-entry table makes
# per-segment flag decoding a plain list index.
_FLAGS_TABLE = tuple(TcpFlags(value) for value in range(256))


@dataclass(frozen=True)
class TcpSegment:
    """A TCP segment with the standard 20-byte header (no options)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: TcpFlags
    window: int = 65535
    payload: bytes = b""

    HEADER_LEN = 20

    def __post_init__(self) -> None:
        # One fused range check on the happy path (this runs per decoded
        # and per constructed segment); the loop that names the offending
        # field only runs once a violation is already certain.
        if not (
            0 <= self.src_port <= 0xFFFF
            and 0 <= self.dst_port <= 0xFFFF
            and 0 <= self.seq <= 0xFFFFFFFF
            and 0 <= self.ack <= 0xFFFFFFFF
            and 0 <= self.window <= 0xFFFF
        ):
            for name, val, hi in (
                ("src_port", self.src_port, 0xFFFF),
                ("dst_port", self.dst_port, 0xFFFF),
                ("seq", self.seq, 0xFFFFFFFF),
                ("ack", self.ack, 0xFFFFFFFF),
                ("window", self.window, 0xFFFF),
            ):
                if not 0 <= val <= hi:
                    raise ValueError(f"{name} out of range: {val}")

    def encode(self, src_ip: Address, dst_ip: Address) -> bytes:
        return encode_tcp(
            src_ip,
            dst_ip,
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.flags,
            self.window,
            self.payload,
        )

    @classmethod
    def decode(cls, data: bytes, src_ip: Address, dst_ip: Address, verify: bool = True) -> "TcpSegment":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"TCP segment too short: {len(data)} bytes")
        src_port, dst_port, seq, ack, off_byte, flags, window, _csum, _urg = _HEADER.unpack(
            data[:20]
        )
        header_len = (off_byte >> 4) * 4
        if header_len < cls.HEADER_LEN or header_len > len(data):
            raise ValueError(f"bad TCP data offset: {off_byte >> 4}")
        if verify:
            if internet_checksum(data, _pseudo_sum(src_ip, dst_ip, 6, len(data))) != 0:
                raise ValueError("TCP checksum mismatch")
        # Every field comes off a fixed-width unpack, so it is in range:
        # the segment skips the generated __init__ and its range check
        # and gets its fields in one instance-dict write.
        segment = object.__new__(cls)
        segment.__dict__.update(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=_FLAGS_TABLE[flags],
            window=window,
            payload=bytes(data[header_len:]),
        )
        return segment


def encode_tcp(
    src_ip: Address,
    dst_ip: Address,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    window: int = 65535,
    payload: bytes = b"",
) -> bytes:
    """The wire bytes of a TCP segment (20-byte header, no options) with
    its checksum over the ``src_ip``/``dst_ip`` pseudo-header:
    byte-identical to ``TcpSegment(...).encode(src_ip, dst_ip)``, without
    building the record."""
    header = _HEADER.pack(src_port, dst_port, seq, ack, 0x50, flags, window, 0, 0)
    length = TcpSegment.HEADER_LEN + len(payload)
    checksum = internet_checksum(header + payload, _pseudo_sum(src_ip, dst_ip, 6, length))
    return _HEADER.pack(src_port, dst_port, seq, ack, 0x50, flags, window, checksum, 0) + payload


def _pseudo_sum(src_ip: Address, dst_ip: Address, proto: int, length: int) -> int:
    if isinstance(src_ip, IPv4Address):
        assert isinstance(dst_ip, IPv4Address)
        return pseudo_sum_v4(src_ip, dst_ip, proto, length)
    assert isinstance(dst_ip, IPv6Address)
    return pseudo_sum_v6(src_ip, dst_ip, proto, length)
