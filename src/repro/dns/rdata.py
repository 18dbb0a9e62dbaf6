"""DNS record data (RDATA) types and the numeric registries.

The testbed's zones hold A, AAAA and SOA records only, so those are the
three types modelled.  Each knows how to encode itself and decode from a
message buffer (the SOA's names may use compression, hence decode
receives the whole message plus an offset).  Every other type is carried
as :class:`OpaqueRData`.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from repro.dns.name import DnsName, NameCompressor
from repro.net.addresses import IPv4Address, IPv6Address

__all__ = [
    "RRType",
    "RRClass",
    "RCode",
    "A",
    "AAAA",
    "SOA",
    "OpaqueRData",
    "decode_rdata",
]


class RRType(enum.IntEnum):
    """DNS resource-record type codes.  A client may ask for any of
    them; only A, AAAA and SOA have RDATA classes."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    PTR = 12
    MX = 15
    TXT = 16
    AAAA = 28
    SRV = 33
    ANY = 255


class RRClass(enum.IntEnum):
    """DNS class codes (IN is all anyone uses)."""

    IN = 1
    ANY = 255


class RCode(enum.IntEnum):
    """DNS response codes (RFC 1035 §4.1.1)."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


@dataclass(frozen=True)
class A:
    """IPv4 address record — the record type the paper poisons."""

    address: IPv4Address

    rrtype = RRType.A

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        del compressor
        return self.address.packed

    @classmethod
    def decode(cls, message: bytes, offset: int, rdlength: int) -> "A":
        if rdlength != 4:
            raise ValueError(f"A RDATA must be 4 bytes, got {rdlength}")
        return cls(IPv4Address(message[offset : offset + 4]))

    def __str__(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class AAAA:
    """IPv6 address record — forwarded untouched by the poisoned server."""

    address: IPv6Address

    rrtype = RRType.AAAA

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        del compressor
        return self.address.packed

    @classmethod
    def decode(cls, message: bytes, offset: int, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise ValueError(f"AAAA RDATA must be 16 bytes, got {rdlength}")
        return cls(IPv6Address(message[offset : offset + 16]))

    def __str__(self) -> str:
        return str(self.address)


@dataclass(frozen=True)
class SOA:
    mname: DnsName
    rname: DnsName
    serial: int
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300

    rrtype = RRType.SOA

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        del compressor
        return (
            self.mname.encode()
            + self.rname.encode()
            + struct.pack(
                "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
            )
        )

    @classmethod
    def decode(cls, message: bytes, offset: int, rdlength: int) -> "SOA":
        del rdlength
        mname, offset = DnsName.decode(message, offset)
        rname, offset = DnsName.decode(message, offset)
        serial, refresh, retry, expire, minimum = struct.unpack(
            "!IIIII", message[offset : offset + 20]
        )
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


@dataclass(frozen=True)
class OpaqueRData:
    """RDATA of a type we don't model, carried verbatim (RFC 3597).

    Only the wire can bring one: the forwarders relay replies of the
    in-tree servers, whose RDATA is A, AAAA or SOA, so no compressed
    name inside well-known RDATA is ever carried here."""

    rrtype_value: int
    data: bytes

    @property
    def rrtype(self) -> int:
        return self.rrtype_value

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        del compressor
        return self.data

    @classmethod
    def decode(cls, rrtype: int, message: bytes, offset: int, rdlength: int) -> "OpaqueRData":
        """RFC 3597: unknown RDATA is preserved byte-for-byte, never
        decompressed — re-encoding emits exactly the wire bytes seen."""
        return cls(rrtype, bytes(message[offset : offset + rdlength]))


_RDATA_CLASSES = {
    RRType.A: A,
    RRType.AAAA: AAAA,
    RRType.SOA: SOA,
}


def decode_rdata(rrtype: int, message: bytes, offset: int, rdlength: int):
    """Decode RDATA for ``rrtype`` from ``message`` at ``offset``."""
    cls = _RDATA_CLASSES.get(rrtype)
    if cls is None:
        return OpaqueRData.decode(rrtype, message, offset, rdlength)
    return cls.decode(message, offset, rdlength)
