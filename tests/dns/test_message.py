"""DNS messages: header flags, sections, full-message round trips."""

import dataclasses

import pytest

from repro.dns.message import DnsHeader, DnsMessage, DnsQuestion, ResourceRecord, unpack_header
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, decode_rdata, OpaqueRData, RCode, RRType, SOA
from repro.net.addresses import IPv4Address, IPv6Address


class TestHeader:
    def test_round_trip_all_flags(self):
        header = DnsHeader(
            ident=0x1234,
            is_response=True,
            opcode=2,
            authoritative=True,
            truncated=True,
            recursion_desired=True,
            recursion_available=True,
            rcode=RCode.NXDOMAIN,
            qdcount=1,
            ancount=2,
            nscount=3,
            arcount=4,
        )
        assert DnsHeader.decode(header.encode()) == header

    def test_wire_length(self):
        assert len(DnsHeader(ident=1).encode()) == 12

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            DnsHeader.decode(b"\x00" * 11)


class TestQuestionAndRecords:
    def test_question_round_trip(self):
        q = DnsQuestion(DnsName("ip6.me"), RRType.AAAA)
        wire = q.encode()
        decoded, offset = DnsQuestion.decode(wire, 0)
        assert decoded == q and offset == len(wire)

    def test_question_str(self):
        assert str(DnsQuestion(DnsName("ip6.me"), RRType.AAAA)) == "ip6.me AAAA"

    def test_rr_round_trip_a(self):
        rr = ResourceRecord(DnsName("ip6.me"), RRType.A, 60, A(IPv4Address("23.153.8.71")))
        wire = rr.encode()
        decoded, offset = ResourceRecord.decode(wire, 0)
        assert decoded == rr and offset == len(wire)

    def test_rr_str(self):
        rr = ResourceRecord(DnsName("ip6.me"), RRType.A, 60, A(IPv4Address("23.153.8.71")))
        assert str(rr) == "ip6.me 60 A 23.153.8.71"


class TestRdataTypes:
    def _round_trip(self, rdata):
        rr = ResourceRecord(DnsName("x.example"), rdata.rrtype, 300, rdata)
        decoded, _ = ResourceRecord.decode(rr.encode(), 0)
        return decoded.rdata

    def test_aaaa(self):
        rdata = AAAA(IPv6Address("64:ff9b::be5c:9e04"))
        assert self._round_trip(rdata) == rdata

    def test_soa(self):
        rdata = SOA(DnsName("ns1.example"), DnsName("hostmaster.example"), 2024110100)
        assert self._round_trip(rdata) == rdata

    @pytest.mark.parametrize(
        "rrtype, data",
        [
            pytest.param(rrtype, data, id=rrtype.name)
            for rrtype, data in (
                (RRType.NS, b"\x03ns1\x07example\x00"),
                (RRType.CNAME, b"\x06target\x07example\x00"),
                (RRType.PTR, b"\x04host\x07example\x00"),
                (RRType.MX, b"\x00\x0a\x04mail\x07example\x00"),
                (RRType.TXT, b"\x0bv=spf1 -all\x0dsecond string"),
                (RRType.SRV, b"\x00\x00\x00\x05\x01\xbb\x03svc\x07example\x00"),
            )
        ],
    )
    def test_unmodelled_type_answer_is_opaque(self, rrtype, data):
        """The zones serve A, AAAA and SOA only: an answer of any other
        type decodes as RFC 3597 opaque RDATA and re-encodes to the
        bytes it came from."""
        query = DnsMessage.query("x.example", rrtype, ident=3)
        answer = ResourceRecord(DnsName("x.example"), rrtype, 300, OpaqueRData(rrtype, data))
        wire = query.response(answers=(answer,)).encode()
        decoded = DnsMessage.decode(wire)
        assert decoded.answers[0].rdata == OpaqueRData(rrtype, data)
        assert decoded.encode() == wire

    def test_unknown_type_opaque(self):
        blob = b"\x01\x02\x03\x04"
        rdata = decode_rdata(99, blob, 0, 4)
        assert isinstance(rdata, OpaqueRData)
        assert rdata.data == blob
        assert rdata.encode() == blob

    def test_a_wrong_length(self):
        with pytest.raises(ValueError):
            A.decode(b"\x00" * 3, 0, 3)


class TestFullMessage:
    def test_query_constructor(self):
        query = DnsMessage.query("sc24.supercomputing.org", RRType.AAAA, ident=77)
        assert query.header.ident == 77
        assert not query.header.is_response
        assert query.question.rrtype == RRType.AAAA

    def test_query_response_cycle(self):
        query = DnsMessage.query("ip6.me", RRType.A, ident=5)
        answer = ResourceRecord(DnsName("ip6.me"), RRType.A, 60, A(IPv4Address("23.153.8.71")))
        response = query.response(answers=(answer,), authoritative=True)
        wire = response.encode()
        decoded = DnsMessage.decode(wire)
        assert decoded.header.ident == 5
        assert decoded.header.is_response
        assert decoded.header.authoritative
        assert decoded.answers[0].rdata.address == IPv4Address("23.153.8.71")

    def test_counts_derived_from_sections(self):
        query = DnsMessage.query("a.example", ident=1)
        wire = query.encode()
        decoded = DnsMessage.decode(wire)
        assert decoded.header.qdcount == 1
        assert decoded.header.ancount == 0

    def test_compression_shrinks_message(self):
        query = DnsMessage.query("sc24.supercomputing.org", RRType.AAAA, ident=7)
        answers = tuple(
            ResourceRecord(
                DnsName("sc24.supercomputing.org"),
                RRType.AAAA,
                300,
                AAAA(IPv6Address(f"64:ff9b::{i}")),
            )
            for i in range(1, 4)
        )
        response = query.response(answers=answers)
        wire = response.encode()
        # Without compression each owner name costs 25 bytes; with
        # pointers, repeats cost 2.
        uncompressed_estimate = 12 + 29 + 3 * (25 + 10 + 16)
        assert len(wire) < uncompressed_estimate - 3 * 20

    def test_multi_section_round_trip(self):
        query = DnsMessage.query("nx.anl.gov", RRType.A, ident=9)
        soa = ResourceRecord(
            DnsName("anl.gov"),
            RRType.SOA,
            300,
            SOA(DnsName("ns1.anl.gov"), DnsName("hostmaster.anl.gov"), 1),
        )
        response = query.response(rcode=RCode.NXDOMAIN, authorities=(soa,))
        decoded = DnsMessage.decode(response.encode())
        assert decoded.rcode == RCode.NXDOMAIN
        assert decoded.authorities[0].rrtype == RRType.SOA

    def test_answers_of_type(self):
        query = DnsMessage.query("x.example", RRType.A, ident=1)
        mixed = (
            ResourceRecord(DnsName("x.example"), RRType.AAAA, 60, AAAA(IPv6Address("2001:db8::1"))),
            ResourceRecord(DnsName("x.example"), RRType.A, 60, A(IPv4Address("192.0.2.1"))),
        )
        response = query.response(answers=mixed)
        assert len(response.answers_of_type(RRType.A)) == 1
        assert len(response.answers_of_type(RRType.AAAA)) == 1

    def test_no_question_raises(self):
        message = DnsMessage(header=DnsHeader(ident=1))
        with pytest.raises(ValueError):
            message.question


# --------------------------------------------------------------------------
# Records built without the generated __init__
# --------------------------------------------------------------------------

_NAME = DnsName("sc24.supercomputing.org")
_QUESTION = DnsQuestion(_NAME, RRType.AAAA)
_ANSWER = ResourceRecord(_NAME, RRType.AAAA, 300, AAAA(IPv6Address("64:ff9b::be5c:9e04")))
_SOA = ResourceRecord(
    DnsName("supercomputing.org"),
    RRType.SOA,
    60,
    SOA(DnsName("ns1.supercomputing.org"), DnsName("hostmaster.supercomputing.org"), 7),
)

#: Messages built with the public constructors, their header counts
#: those of their sections: what decoding their wire must rebuild.
_BUILT = {
    "query": DnsMessage(
        header=DnsHeader(ident=0x2A, qdcount=1),
        questions=(_QUESTION,),
    ),
    "positive answer": DnsMessage(
        header=DnsHeader(
            ident=0x2A,
            is_response=True,
            authoritative=True,
            recursion_available=True,
            qdcount=1,
            ancount=1,
        ),
        questions=(_QUESTION,),
        answers=(_ANSWER,),
    ),
    "NXDOMAIN with an SOA": DnsMessage(
        header=DnsHeader(
            ident=0xBEEF,
            is_response=True,
            authoritative=True,
            recursion_desired=False,
            rcode=RCode.NXDOMAIN,
            qdcount=1,
            nscount=1,
        ),
        questions=(DnsQuestion(DnsName("nx.supercomputing.org"), RRType.A),),
        authorities=(_SOA,),
    ),
    "every flag and section": DnsMessage(
        header=DnsHeader(
            ident=0xFFFF,
            is_response=True,
            opcode=2,
            authoritative=True,
            truncated=True,
            recursion_desired=True,
            recursion_available=True,
            rcode=RCode.REFUSED,
            qdcount=1,
            ancount=1,
            nscount=1,
            arcount=1,
        ),
        questions=(_QUESTION,),
        answers=(_ANSWER,),
        authorities=(_SOA,),
        additionals=(_ANSWER,),
    ),
}


def _fields(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _records(record):
    """``record`` and every record it holds, header and owner names included."""
    if isinstance(record, DnsMessage):
        held = (record.header,) + tuple(record.questions) + tuple(record.answers)
        held += tuple(record.authorities) + tuple(record.additionals)
        return [record] + [inner for part in held for inner in _records(part)]
    if isinstance(record, (DnsQuestion, ResourceRecord)):
        return [record, record.name]
    return [record]


def assert_built_like(built, expected):
    """``built`` equals ``expected`` field by field, record by record, and
    is frozen.  Every field must sit in the instance dict: a dataclass
    keeps each default on the class too, so a field a fast path forgot
    to write would still read as its default."""
    pairs = list(zip(_records(built), _records(expected)))
    assert len(pairs) == len(_records(expected)) == len(_records(built))
    for record, reference in pairs:
        assert type(record) is type(reference)
        assert _fields(record) == _fields(reference)
        assert {f.name for f in dataclasses.fields(record)} <= set(vars(record))
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
    assert built == expected and hash(built) == hash(expected)


class TestDirectlyBuiltRecords:
    @pytest.mark.parametrize("case", sorted(_BUILT))
    def test_decode_builds_what_the_constructors_build(self, case):
        expected = _BUILT[case]
        assert_built_like(DnsMessage.decode(expected.encode()), expected)

    @pytest.mark.parametrize("case", sorted(_BUILT))
    def test_decoded_header_and_records_alone(self, case):
        expected = _BUILT[case]
        wire = expected.encode()
        assert_built_like(DnsHeader.decode(wire), expected.header)
        question, offset = DnsQuestion.decode(wire, DnsHeader.WIRE_LEN)
        assert_built_like(question, expected.questions[0])
        if expected.answers:
            record, _ = ResourceRecord.decode(wire, offset)
            assert_built_like(record, expected.answers[0])

    @pytest.mark.parametrize("recursion_desired", [True, False])
    def test_response_builds_what_the_constructors_build(self, recursion_desired):
        query = DnsMessage.query(
            _NAME, RRType.AAAA, ident=0x1234, recursion_desired=recursion_desired
        )
        response = query.response(
            answers=[_ANSWER],
            rcode=RCode.NXDOMAIN,
            authoritative=True,
            authorities=[_SOA],
            additionals=[_ANSWER],
            recursion_available=False,
        )
        expected = DnsMessage(
            header=DnsHeader(
                ident=0x1234,
                is_response=True,
                authoritative=True,
                recursion_desired=recursion_desired,
                recursion_available=False,
                rcode=RCode.NXDOMAIN,
            ),
            questions=(_QUESTION,),
            answers=(_ANSWER,),
            authorities=(_SOA,),
            additionals=(_ANSWER,),
        )
        assert_built_like(response, expected)
        assert all(
            type(section) is tuple
            for section in (response.answers, response.authorities, response.additionals)
        )

    def test_response_defaults(self):
        query = DnsMessage.decode(_BUILT["query"].encode())
        expected = DnsMessage(
            header=DnsHeader(ident=0x2A, is_response=True, recursion_available=True),
            questions=(_QUESTION,),
        )
        assert_built_like(query.response(), expected)


class TestEncodeCounts:
    def test_counts_come_from_the_sections_not_the_header(self):
        decoded = DnsMessage.decode(_BUILT["positive answer"].encode())
        extra = ResourceRecord(_NAME, RRType.AAAA, 300, AAAA(IPv6Address("64:ff9b::1")))
        grown = dataclasses.replace(decoded, answers=decoded.answers + (extra,))
        assert grown.header.ancount == 1
        wire = grown.encode()
        assert unpack_header(wire)[2:] == (1, 2, 0, 0)
        assert DnsMessage.decode(wire).answers == (_ANSWER, extra)

    def test_header_counts_never_reach_the_wire(self):
        message = DnsMessage(
            header=DnsHeader(ident=3, qdcount=9, ancount=8, nscount=7, arcount=6),
            questions=(_QUESTION,),
            authorities=(_SOA,),
        )
        wire = message.encode()
        assert unpack_header(wire) == (3, 0x0100, 1, 0, 1, 0)

    def test_flags_match_the_header_encoding(self):
        for expected in _BUILT.values():
            assert expected.encode()[:12] == expected.header.encode()
