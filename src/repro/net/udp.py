"""UDP (RFC 768) with pseudo-header checksums for both IP versions.

DNS and DHCP — the protocols at the heart of the paper's intervention —
both ride on these datagrams in the simulation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Union

from repro.net.addresses import IPv4Address, IPv6Address
from repro.net.checksum import internet_checksum, pseudo_sum_v4, pseudo_sum_v6

__all__ = ["UdpDatagram", "encode_udp"]

Address = Union[IPv4Address, IPv6Address]

_HEADER = struct.Struct("!HHHH")

# Broadcast DHCP datagrams are decoded once per receiving host; the frozen
# datagram (bytes payload) is immutable, so receivers can share one decode.
_DECODE_CACHE: dict = {}
_DECODE_CACHE_LIMIT = 8192


@dataclass(frozen=True)
class UdpDatagram:
    """A UDP datagram. Checksum is computed at encode time from the
    enclosing IP addresses (pass them to :meth:`encode`/:meth:`decode`)."""

    src_port: int
    dst_port: int
    payload: bytes

    HEADER_LEN = 8

    def __post_init__(self) -> None:
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} out of range: {port}")

    @property
    def length(self) -> int:
        return self.HEADER_LEN + len(self.payload)

    def encode(self, src_ip: Address, dst_ip: Address) -> bytes:
        return encode_udp(src_ip, dst_ip, self.src_port, self.dst_port, self.payload)

    @classmethod
    def decode(cls, data: bytes, src_ip: Address, dst_ip: Address, verify: bool = True) -> "UdpDatagram":
        key = None
        if verify:
            key = (bytes(data), src_ip, dst_ip)
            cached = _DECODE_CACHE.get(key)
            if cached is not None:
                return cached
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"UDP datagram too short: {len(data)} bytes")
        src_port, dst_port, length, csum = _HEADER.unpack(data[:8])
        if length < cls.HEADER_LEN or length > len(data):
            raise ValueError(f"bad UDP length: {length}")
        if verify and csum != 0:
            if internet_checksum(data[:length], _pseudo_sum(src_ip, dst_ip, 17, length)) != 0:
                raise ValueError("UDP checksum mismatch")
        elif verify and csum == 0 and isinstance(src_ip, IPv6Address):
            raise ValueError("UDP over IPv6 requires a checksum (RFC 8200 §8.1)")
        # Built through __init__: the cache keeps this record, and one
        # whose fields went in through a single instance-dict write
        # takes about twice the memory.
        datagram = cls(src_port=src_port, dst_port=dst_port, payload=bytes(data[8:length]))
        if key is not None:
            if len(_DECODE_CACHE) >= _DECODE_CACHE_LIMIT:
                _DECODE_CACHE.clear()
            _DECODE_CACHE[key] = datagram
        return datagram


def encode_udp(
    src_ip: Address, dst_ip: Address, src_port: int, dst_port: int, payload: bytes
) -> bytes:
    """The wire bytes of a UDP datagram with its checksum over the
    ``src_ip``/``dst_ip`` pseudo-header: byte-identical to
    ``UdpDatagram(...).encode(src_ip, dst_ip)``, without building the
    record."""
    length = UdpDatagram.HEADER_LEN + len(payload)
    header = _HEADER.pack(src_port, dst_port, length, 0)
    checksum = internet_checksum(header + payload, _pseudo_sum(src_ip, dst_ip, 17, length))
    if checksum == 0:
        checksum = 0xFFFF  # RFC 768: transmitted zero means "no checksum"
    return _HEADER.pack(src_port, dst_port, length, checksum) + payload


def _pseudo_sum(src_ip: Address, dst_ip: Address, proto: int, length: int) -> int:
    if isinstance(src_ip, IPv4Address):
        assert isinstance(dst_ip, IPv4Address)
        return pseudo_sum_v4(src_ip, dst_ip, proto, length)
    assert isinstance(dst_ip, IPv6Address)
    return pseudo_sum_v6(src_ip, dst_ip, proto, length)
