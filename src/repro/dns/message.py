"""The DNS message: header, question and resource-record sections
(RFC 1035 §4.1), with name compression on encode.

Every query that misses a server's response cache pays a decode and an
encode, so the records built on that path skip the generated
``__init__`` of a frozen dataclass, which makes one
``object.__setattr__`` call per field: the decoders and
:meth:`DnsMessage.response` build each record with ``object.__new__``
and one write of every field into the instance dict, as
:meth:`DnsName.decode` does.  No record here has a ``__post_init__``,
so no check is skipped, and the records stay frozen.  Every other
caller uses the public constructors.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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


def _flags(header: "DnsHeader") -> int:
    """The header's flag bits as one 16-bit word."""
    return (
        (0x8000 if header.is_response else 0)
        | ((header.opcode & 0xF) << 11)
        | (0x0400 if header.authoritative else 0)
        | (0x0200 if header.truncated else 0)
        | (0x0100 if header.recursion_desired else 0)
        | (0x0080 if header.recursion_available else 0)
        | (header.rcode & 0xF)
    )


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
        return pack_header(
            self.ident, _flags(self), self.qdcount, self.ancount, self.nscount, self.arcount
        )

    @classmethod
    def decode(cls, data: bytes) -> "DnsHeader":
        ident, flags, qd, an, ns, ar = unpack_header(data)
        header = object.__new__(cls)
        header.__dict__.update(
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
        return header


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
        question = object.__new__(cls)
        question.__dict__.update(name=name, rrtype=rrtype, rrclass=rrclass)
        return question, offset + 4

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
        record = object.__new__(cls)
        record.__dict__.update(name=name, rrtype=rrtype, ttl=ttl, rdata=rdata, rrclass=rrclass)
        return record, offset + rdlength

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
        header = object.__new__(DnsHeader)
        header.__dict__.update(
            ident=self.header.ident,
            is_response=True,
            opcode=0,
            authoritative=authoritative,
            truncated=False,
            recursion_desired=self.header.recursion_desired,
            recursion_available=recursion_available,
            rcode=rcode,
            qdcount=0,
            ancount=0,
            nscount=0,
            arcount=0,
        )
        response = object.__new__(DnsMessage)
        response.__dict__.update(
            header=header,
            questions=tuple(self.questions),
            answers=tuple(answers),
            authorities=tuple(authorities),
            additionals=tuple(additionals),
        )
        return response

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
        header = self.header
        out = bytearray(
            pack_header(
                header.ident,
                _flags(header),
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
        )
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
        message = object.__new__(cls)
        message.__dict__.update(
            header=header,
            questions=tuple(questions),
            answers=tuple(sections[0]),
            authorities=tuple(sections[1]),
            additionals=tuple(sections[2]),
        )
        return message
