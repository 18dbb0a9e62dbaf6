"""DNS names: normalization, wire format, compression pointers."""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.name import DnsName, NameCompressor


class TestNormalization:
    def test_case_insensitive_equality(self):
        assert DnsName("SC24.Supercomputing.ORG") == DnsName("sc24.supercomputing.org")

    def test_trailing_dot_ignored(self):
        assert DnsName("ip6.me.") == DnsName("ip6.me")

    def test_root(self):
        assert DnsName("").is_root
        assert DnsName(".").is_root
        assert str(DnsName("")) == "."

    def test_hashable(self):
        assert hash(DnsName("A.b")) == hash(DnsName("a.B"))

    def test_label_too_long(self):
        with pytest.raises(ValueError):
            DnsName("a" * 64 + ".com")

    def test_name_too_long(self):
        with pytest.raises(ValueError):
            DnsName(".".join(["a" * 63] * 5))

    def test_empty_label(self):
        with pytest.raises(ValueError):
            DnsName("a..b")

    def test_from_labels(self):
        assert DnsName(("vpn", "anl", "gov")) == DnsName("vpn.anl.gov")


class TestStructure:
    def test_parent(self):
        assert DnsName("vpn.anl.gov").parent() == DnsName("anl.gov")
        assert DnsName("").parent().is_root

    def test_child(self):
        assert DnsName("anl.gov").child("VPN") == DnsName("vpn.anl.gov")

    def test_subdomain(self):
        assert DnsName("vpn.anl.gov").is_subdomain_of(DnsName("anl.gov"))
        assert DnsName("anl.gov").is_subdomain_of(DnsName("anl.gov"))
        assert not DnsName("anl.gov").is_subdomain_of(DnsName("vpn.anl.gov"))
        assert not DnsName("xanl.gov").is_subdomain_of(DnsName("anl.gov"))
        assert DnsName("anything").is_subdomain_of(DnsName(""))

    def test_concatenate_figure_9(self):
        # The paper's suffix-search artifact.
        combined = DnsName("vpn.anl.gov").concatenate(DnsName("rfc8925.com"))
        assert str(combined) == "vpn.anl.gov.rfc8925.com"

    def test_label_count(self):
        assert DnsName("a.b.c").label_count == 3


class TestWireFormat:
    def test_encode_simple(self):
        assert DnsName("ip6.me").encode() == b"\x03ip6\x02me\x00"

    def test_root_encoding(self):
        assert DnsName("").encode() == b"\x00"

    def test_decode_round_trip(self):
        wire = DnsName("sc24.supercomputing.org").encode()
        name, offset = DnsName.decode(wire, 0)
        assert name == DnsName("sc24.supercomputing.org")
        assert offset == len(wire)

    def test_decode_compression_pointer(self):
        # "anl.gov" at offset 0, then "vpn" + pointer to 0 at offset 9.
        data = DnsName("anl.gov").encode() + b"\x03vpn\xc0\x00"
        name, offset = DnsName.decode(data, 9)
        assert name == DnsName("vpn.anl.gov")
        assert offset == len(data)

    def test_pointer_loop_detected(self):
        data = b"\xc0\x02\xc0\x00"
        with pytest.raises(ValueError, match="loop"):
            DnsName.decode(data, 0)

    def test_truncated_name(self):
        with pytest.raises(ValueError):
            DnsName.decode(b"\x05ab", 0)

    def test_reserved_label_type(self):
        with pytest.raises(ValueError):
            DnsName.decode(b"\x80x\x00", 0)

    @staticmethod
    def pointer_built(tail_labels, head_labels):
        """A message holding ``tail`` at offset 0, then ``head`` followed
        by a pointer to it; returns the message and the head's offset.
        Neither stretch is over 255 octets on its own."""
        tail = b"".join(bytes([len(label)]) + label.encode() for label in tail_labels) + b"\x00"
        head = b"".join(bytes([len(label)]) + label.encode() for label in head_labels)
        return tail + head + b"\xc0\x00", len(tail)

    def test_pointer_built_name_over_255_octets_rejected(self):
        # 4 x (1 + 63) + 1 = 257 octets.
        data, offset = self.pointer_built(["c" * 63, "d" * 63], ["a" * 63, "b" * 63])
        with pytest.raises(ValueError, match="too long"):
            DnsName.decode(data, offset)

    def test_pointer_built_name_of_255_octets_accepted(self):
        # 3 x (1 + 63) + (1 + 61) + 1 = 255 octets.
        data, offset = self.pointer_built(["c" * 63, "d" * 61], ["a" * 63, "b" * 63])
        name, end = DnsName.decode(data, offset)
        assert len(name.encode()) == 255 and end == len(data)

    @given(
        labels=st.lists(
            st.text(alphabet="abcXYZ019-_", min_size=1, max_size=63), min_size=0, max_size=4
        )
    )
    def test_decoded_names_equal_parsed_names(self, labels):
        wire = b"".join(bytes([len(label)]) + label.encode() for label in labels) + b"\x00"
        name, end = DnsName.decode(wire, 0)
        parsed = DnsName(".".join(labels))
        assert end == len(wire)
        assert name == parsed and hash(name) == hash(parsed)
        assert str(name) == str(parsed) and name.labels == parsed.labels
        assert name.encode() == parsed.encode() == wire.lower()
        assert {parsed: True}.get(name)

    def test_decodes_share_each_label_string(self):
        wire = DnsName("sc24.supercomputing.org").encode()
        first, _ = DnsName.decode(bytes(bytearray(wire)), 0)
        second, _ = DnsName.decode(bytes(bytearray(wire)), 0)
        assert first.labels == second.labels == ("sc24", "supercomputing", "org")
        assert all(a is b for a, b in zip(first.labels, second.labels))
        assert first.labels[1] is sys.intern("supercomputing")

    def test_pointer_and_mixed_case_decodes_share_label_strings(self):
        # "Supercomputing.ORG" at 0, then "SC24" + a pointer to it.
        data = b"\x0eSupercomputing\x03ORG\x00\x04SC24\xc0\x00"
        plain, _ = DnsName.decode(DnsName("sc24.supercomputing.org").encode(), 0)
        pointed, _ = DnsName.decode(data, 20)
        assert pointed == plain
        assert all(a is b for a, b in zip(pointed.labels, plain.labels))


class TestCompressor:
    def test_first_occurrence_uncompressed(self):
        compressor = NameCompressor()
        compressor.note_position(12)
        wire = compressor.encode(DnsName("ip6.me"))
        assert wire == b"\x03ip6\x02me\x00"

    def test_repeat_emits_pointer(self):
        compressor = NameCompressor()
        compressor.note_position(12)
        first = compressor.encode(DnsName("ip6.me"))
        compressor.note_position(12 + len(first))
        second = compressor.encode(DnsName("ip6.me"))
        assert second == (0xC000 | 12).to_bytes(2, "big")

    def test_suffix_sharing(self):
        compressor = NameCompressor()
        compressor.note_position(12)
        compressor.encode(DnsName("anl.gov"))
        compressor.note_position(12 + len(DnsName("anl.gov").encode()))
        wire = compressor.encode(DnsName("vpn.anl.gov"))
        # "vpn" label + pointer back to anl.gov at 12.
        assert wire == b"\x03vpn" + (0xC000 | 12).to_bytes(2, "big")

    def test_decode_of_compressed_message(self):
        compressor = NameCompressor()
        compressor.note_position(0)
        part1 = compressor.encode(DnsName("test-ipv6.com"))
        compressor.note_position(len(part1))
        part2 = compressor.encode(DnsName("ipv6.test-ipv6.com"))
        blob = part1 + part2
        n1, off1 = DnsName.decode(blob, 0)
        n2, _off2 = DnsName.decode(blob, off1)
        assert n1 == DnsName("test-ipv6.com")
        assert n2 == DnsName("ipv6.test-ipv6.com")
