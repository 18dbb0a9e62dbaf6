"""The Internet checksum (RFC 1071) and transport pseudo-headers.

Every simulated packet carries a real checksum; NAT64/SIIT translation
(:mod:`repro.xlat.siit`) recomputes them exactly as RFC 7915 requires, so
corruption anywhere in the pipeline is caught the same way a real network
stack would catch it.
"""

from __future__ import annotations

import struct
from functools import lru_cache

from repro.net.addresses import IPv4Address, IPv6Address


def ones_complement_sum(data: bytes, initial: int = 0) -> int:
    """16-bit ones-complement sum of ``data`` (not yet complemented).

    Odd-length input is padded with a zero byte, per RFC 1071.  The
    buffer is read as one big-endian integer: 2**16 ≡ 1 (mod 65535), so
    ``N % 0xFFFF`` *is* the folded big-endian word sum — one C-level
    conversion and one modulo instead of a Python-side word loop.  The
    only representational gap is a positive word sum that is ≡ 0
    (mod 65535): repeated end-around-carry folding yields 0xFFFF there
    (folding a positive total can never reach 0), while the modulo
    yields 0, hence the explicit fix-up.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    n = int.from_bytes(data, "big")
    total = n % 0xFFFF
    if total == 0 and n:
        total = 0xFFFF
    total += initial
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """RFC 1071 Internet checksum: the complement of the ones-complement sum."""
    return (~ones_complement_sum(data, initial)) & 0xFFFF


def verify_checksum(data: bytes, initial: int = 0) -> bool:
    """True when a buffer that *includes* its checksum field sums to 0xFFFF."""
    return ones_complement_sum(data, initial) == 0xFFFF


def pseudo_header_v4(src: IPv4Address, dst: IPv4Address, proto: int, length: int) -> bytes:
    """The IPv4 pseudo-header used by UDP/TCP checksums (RFC 768/793)."""
    return src.packed + dst.packed + struct.pack("!BBH", 0, proto, length)


def pseudo_header_v6(src: IPv6Address, dst: IPv6Address, next_header: int, length: int) -> bytes:
    """The IPv6 pseudo-header of RFC 8200 §8.1 (used by UDP/TCP/ICMPv6)."""
    return src.packed + dst.packed + struct.pack("!IHBB", length, 0, 0, next_header)


# The (src, dst, proto) part of a pseudo-header is fixed per flow while
# only the length word varies.  Ones-complement addition is associative,
# so the base sum can be cached per address pair and the length folded
# in afterwards — sparing a .packed + struct.pack + word sum per packet.


@lru_cache(maxsize=None)
def _pseudo_base_sum_v4(src: IPv4Address, dst: IPv4Address, proto: int) -> int:
    return ones_complement_sum(src.packed + dst.packed + struct.pack("!BBH", 0, proto, 0))


@lru_cache(maxsize=None)
def _pseudo_base_sum_v6(src: IPv6Address, dst: IPv6Address, next_header: int) -> int:
    return ones_complement_sum(src.packed + dst.packed + struct.pack("!IHBB", 0, 0, 0, next_header))


def pseudo_sum_v4(src: IPv4Address, dst: IPv4Address, proto: int, length: int) -> int:
    """Ones-complement sum of the IPv4 pseudo-header, cached per flow."""
    total = _pseudo_base_sum_v4(src, dst, proto) + length
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def pseudo_sum_v6(src: IPv6Address, dst: IPv6Address, next_header: int, length: int) -> int:
    """Ones-complement sum of the IPv6 pseudo-header, cached per flow."""
    total = _pseudo_base_sum_v6(src, dst, next_header) + (length >> 16) + (length & 0xFFFF)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total
