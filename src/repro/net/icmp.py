"""ICMP for IPv4 (RFC 792): echo, unreachable, time exceeded.

The paper's figure 7 pings run through this codec on the IPv4 side of
the CLAT/NAT64 path; SIIT (RFC 7915) translates these messages to and
from ICMPv6.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.net.checksum import internet_checksum, verify_checksum

__all__ = ["IcmpType", "IcmpMessage"]


class IcmpType(enum.IntEnum):
    """ICMPv4 message types used by the testbed."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


@dataclass(frozen=True)
class IcmpMessage:
    """A generic ICMPv4 message: type, code, rest-of-header, body."""

    icmp_type: int
    code: int
    rest: int = 0  # the 4 bytes after the checksum (id/seq for echo, unused otherwise)
    body: bytes = b""

    HEADER_LEN = 8

    def encode(self) -> bytes:
        header = struct.pack("!BBHI", self.icmp_type, self.code, 0, self.rest)
        csum = internet_checksum(header + self.body)
        header = struct.pack("!BBHI", self.icmp_type, self.code, csum, self.rest)
        return header + self.body

    @classmethod
    def decode(cls, data: bytes, verify: bool = True) -> "IcmpMessage":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"ICMP message too short: {len(data)} bytes")
        if verify and not verify_checksum(data):
            raise ValueError("ICMP checksum mismatch")
        icmp_type, code, _csum, rest = struct.unpack("!BBHI", data[:8])
        return cls(icmp_type=icmp_type, code=code, rest=rest, body=bytes(data[8:]))

    # -- echo convenience ---------------------------------------------------

    @classmethod
    def echo_request(cls, ident: int, seq: int, payload: bytes = b"") -> "IcmpMessage":
        return cls(IcmpType.ECHO_REQUEST, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), payload)

    @classmethod
    def echo_reply(cls, ident: int, seq: int, payload: bytes = b"") -> "IcmpMessage":
        return cls(IcmpType.ECHO_REPLY, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), payload)

    @property
    def echo_ident(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @property
    def echo_seq(self) -> int:
        return self.rest & 0xFFFF

    @property
    def is_echo(self) -> bool:
        return self.icmp_type in (IcmpType.ECHO_REQUEST, IcmpType.ECHO_REPLY)
