"""The DNS message: header, question and resource-record sections
(RFC 1035 §4.1), with name compression on encode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.dns.name import DnsName, NameCompressor
from repro.dns.rdata import decode_rdata, RCode, RRClass, RRType

__all__ = ["DnsHeader", "DnsQuestion", "ResourceRecord", "DnsMessage"]

_HEADER = struct.Struct("!HHHHHH")


def pack_header(
    ident: int, flags: int, qdcount: int, ancount: int, nscount: int, arcount: int
) -> bytes:
    """The 12-byte DNS header (RFC 1035 §4.1.1), flags pre-assembled."""
    return _HEADER.pack(ident, flags, qdcount, ancount, nscount, arcount)


def unpack_header(data: bytes) -> Tuple[int, int, int, int, int, int]:
    """``(ident, flags, qdcount, ancount, nscount, arcount)`` of a header."""
    if len(data) < 12:
        raise ValueError("truncated DNS header")
    return _HEADER.unpack_from(data, 0)


@dataclass(frozen=True)
class DnsHeader:
    """The 12-byte DNS header."""

    ident: int
    is_response: bool = False
    opcode: int = 0
    authoritative: bool = False
    truncated: bool = False
    recursion_desired: bool = True
    recursion_available: bool = False
    rcode: int = RCode.NOERROR
    qdcount: int = 0
    ancount: int = 0
    nscount: int = 0
    arcount: int = 0

    WIRE_LEN = 12

    def encode(self) -> bytes:
        flags = (
            (0x8000 if self.is_response else 0)
            | ((self.opcode & 0xF) << 11)
            | (0x0400 if self.authoritative else 0)
            | (0x0200 if self.truncated else 0)
            | (0x0100 if self.recursion_desired else 0)
            | (0x0080 if self.recursion_available else 0)
            | (self.rcode & 0xF)
        )
        return pack_header(
            self.ident, flags, self.qdcount, self.ancount, self.nscount, self.arcount
        )

    @classmethod
    def decode(cls, data: bytes) -> "DnsHeader":
        ident, flags, qd, an, ns, ar = unpack_header(data)
        return cls(
            ident=ident,
            is_response=bool(flags & 0x8000),
            opcode=(flags >> 11) & 0xF,
            authoritative=bool(flags & 0x0400),
            truncated=bool(flags & 0x0200),
            recursion_desired=bool(flags & 0x0100),
            recursion_available=bool(flags & 0x0080),
            rcode=flags & 0xF,
            qdcount=qd,
            ancount=an,
            nscount=ns,
            arcount=ar,
        )


@dataclass(frozen=True)
class DnsQuestion:
    name: DnsName
    rrtype: int = RRType.A
    rrclass: int = RRClass.IN

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        return self.name.encode(compressor) + struct.pack("!HH", self.rrtype, self.rrclass)

    @classmethod
    def decode(cls, message: bytes, offset: int):
        name, offset = DnsName.decode(message, offset)
        if offset + 4 > len(message):
            raise ValueError("truncated DNS question")
        rrtype, rrclass = struct.unpack("!HH", message[offset : offset + 4])
        return cls(name, rrtype, rrclass), offset + 4

    def __str__(self) -> str:
        try:
            type_name = RRType(self.rrtype).name
        except ValueError:
            type_name = f"TYPE{self.rrtype}"
        return f"{self.name} {type_name}"


@dataclass(frozen=True)
class ResourceRecord:
    """A resource record: owner name, type, class, TTL and typed RDATA."""

    name: DnsName
    rrtype: int
    ttl: int
    rdata: object
    rrclass: int = RRClass.IN

    def encode(self, compressor: Optional[NameCompressor] = None) -> bytes:
        # Only the owner name participates in compression; names inside
        # RDATA are written uncompressed (safe for all decoders, RFC 3597).
        # Everything after the owner name is compressor-independent, so
        # it is rendered once per record and cached — zone records are
        # re-encoded for every response that carries them.
        owner = self.name.encode(compressor)
        tail = self.__dict__.get("_tail_cache")
        if tail is None:
            rdata = self.rdata.encode(None)
            tail = (
                struct.pack("!HHIH", self.rrtype, self.rrclass, self.ttl, len(rdata))
                + rdata
            )
            object.__setattr__(self, "_tail_cache", tail)
        return owner + tail

    @classmethod
    def decode(cls, message: bytes, offset: int):
        name, offset = DnsName.decode(message, offset)
        if offset + 10 > len(message):
            raise ValueError("truncated resource record")
        rrtype, rrclass, ttl, rdlength = struct.unpack("!HHIH", message[offset : offset + 10])
        offset += 10
        if offset + rdlength > len(message):
            raise ValueError("truncated RDATA")
        rdata = decode_rdata(rrtype, message, offset, rdlength)
        return cls(name, rrtype, ttl, rdata, rrclass), offset + rdlength

    def __str__(self) -> str:
        try:
            type_name = RRType(self.rrtype).name
        except ValueError:
            type_name = f"TYPE{self.rrtype}"
        return f"{self.name} {self.ttl} {type_name} {self.rdata}"


@dataclass(frozen=True)
class DnsMessage:
    """A full DNS message.  Section counts in the header are derived at
    encode time from the actual section contents."""

    header: DnsHeader
    questions: Sequence[DnsQuestion] = field(default_factory=tuple)
    answers: Sequence[ResourceRecord] = field(default_factory=tuple)
    authorities: Sequence[ResourceRecord] = field(default_factory=tuple)
    additionals: Sequence[ResourceRecord] = field(default_factory=tuple)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def query(
        cls,
        name,
        rrtype: int = RRType.A,
        ident: int = 0,
        recursion_desired: bool = True,
    ) -> "DnsMessage":
        """Build a standard recursive query."""
        return cls(
            header=DnsHeader(ident=ident, recursion_desired=recursion_desired),
            questions=(DnsQuestion(DnsName(name), rrtype),),
        )

    def response(
        self,
        answers: Sequence[ResourceRecord] = (),
        rcode: int = RCode.NOERROR,
        authoritative: bool = False,
        authorities: Sequence[ResourceRecord] = (),
        additionals: Sequence[ResourceRecord] = (),
        recursion_available: bool = True,
    ) -> "DnsMessage":
        """Build the response to this query, echoing id and question."""
        return DnsMessage(
            header=DnsHeader(
                ident=self.header.ident,
                is_response=True,
                authoritative=authoritative,
                recursion_desired=self.header.recursion_desired,
                recursion_available=recursion_available,
                rcode=rcode,
            ),
            questions=tuple(self.questions),
            answers=tuple(answers),
            authorities=tuple(authorities),
            additionals=tuple(additionals),
        )

    # -- accessors ------------------------------------------------------------

    @property
    def question(self) -> DnsQuestion:
        """The sole question (raises if the message has none)."""
        if not self.questions:
            raise ValueError("DNS message has no question")
        return self.questions[0]

    @property
    def rcode(self) -> int:
        return self.header.rcode

    def answers_of_type(self, rrtype: int) -> List[ResourceRecord]:
        return [rr for rr in self.answers if rr.rrtype == rrtype]

    # -- wire format ------------------------------------------------------------

    def encode(self) -> bytes:
        # Encoding is deterministic, so the wire form is cached on the
        # instance.  Only fully-tuple messages are cached: a message
        # holding list sections could be mutated after the fact.
        cached = self.__dict__.get("_wire_cache")
        if cached is not None:
            return cached
        compressor = NameCompressor()
        out = bytearray()
        header = replace(
            self.header,
            qdcount=len(self.questions),
            ancount=len(self.answers),
            nscount=len(self.authorities),
            arcount=len(self.additionals),
        )
        out += header.encode()
        compressor.note_position(len(out))
        for q in self.questions:
            out += q.encode(compressor)
            compressor.note_position(len(out))
        for section in (self.answers, self.authorities, self.additionals):
            for rr in section:
                out += rr.encode(compressor)
                compressor.note_position(len(out))
        wire = bytes(out)
        if (
            type(self.questions) is tuple
            and type(self.answers) is tuple
            and type(self.authorities) is tuple
            and type(self.additionals) is tuple
        ):
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @classmethod
    def decode(cls, data: bytes) -> "DnsMessage":
        header = DnsHeader.decode(data)
        offset = DnsHeader.WIRE_LEN
        questions = []
        for _ in range(header.qdcount):
            q, offset = DnsQuestion.decode(data, offset)
            questions.append(q)
        sections: List[List[ResourceRecord]] = []
        for count in (header.ancount, header.nscount, header.arcount):
            records = []
            for _ in range(count):
                rr, offset = ResourceRecord.decode(data, offset)
                records.append(rr)
            sections.append(records)
        return cls(
            header=header,
            questions=tuple(questions),
            answers=tuple(sections[0]),
            authorities=tuple(sections[1]),
            additionals=tuple(sections[2]),
        )
