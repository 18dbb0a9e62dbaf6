"""ICMPv6/NDP messages and options, including the paper's figure-3 RA."""

import pytest

from repro.net.addresses import IPv6Address, IPv6Network, MacAddress
from repro.net.icmpv6 import (
    decode_icmpv6,
    encode_icmpv6,
    Icmpv6Message,
    LinkLayerAddressOption,
    MtuOption,
    NdOption,
    NdOptionType,
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInformation,
    RdnssOption,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
)

SRC = IPv6Address("fe80::200:59ff:feaa:c6ab")
DST = IPv6Address("ff02::1")
MAC = MacAddress.parse("00:00:59:aa:c6:ab")


def round_trip(message, src=SRC, dst=DST):
    return decode_icmpv6(encode_icmpv6(message, src, dst), src, dst)


class TestEcho:
    def test_round_trip(self):
        message = Icmpv6Message.echo_request(0xBEEF, 3, b"payload")
        decoded = round_trip(message)
        assert decoded.echo_ident == 0xBEEF
        assert decoded.echo_seq == 3
        assert decoded.body == b"payload"

    def test_checksum_includes_pseudo_header(self):
        wire = encode_icmpv6(Icmpv6Message.echo_request(1, 1), SRC, DST)
        with pytest.raises(ValueError, match="checksum"):
            decode_icmpv6(wire, SRC, IPv6Address("ff02::2"))

    def test_corruption_detected(self):
        wire = bytearray(encode_icmpv6(Icmpv6Message.echo_reply(1, 1, b"z"), SRC, DST))
        wire[-1] ^= 1
        with pytest.raises(ValueError, match="checksum"):
            decode_icmpv6(bytes(wire), SRC, DST)


class TestRouterAdvertisement:
    def _figure3_ra(self):
        """The 5G gateway's RA: GUA prefix + DEAD ULA RDNSS."""
        return RouterAdvertisement(
            cur_hop_limit=64,
            preference=RouterPreference.MEDIUM,
            router_lifetime=1800,
            options=(
                LinkLayerAddressOption(NdOptionType.SOURCE_LINK_LAYER_ADDRESS, MAC),
                MtuOption(1500),
                PrefixInformation(IPv6Network("2607:fb90:9bda:a425::/64")),
                RdnssOption((IPv6Address("fd00:976a::9"), IPv6Address("fd00:976a::10"))),
            ),
        )

    def test_figure3_round_trip(self):
        decoded = round_trip(self._figure3_ra())
        assert decoded.rdnss_servers == [
            IPv6Address("fd00:976a::9"),
            IPv6Address("fd00:976a::10"),
        ]
        assert decoded.prefixes[0].prefix == IPv6Network("2607:fb90:9bda:a425::/64")
        assert decoded.source_lladdr == MAC
        assert decoded.router_lifetime == 1800

    def test_low_preference_round_trip(self):
        # The managed switch's workaround RA is LOW preference.
        ra = RouterAdvertisement(preference=RouterPreference.LOW, router_lifetime=0)
        decoded = round_trip(ra)
        assert decoded.preference == RouterPreference.LOW
        assert decoded.router_lifetime == 0

    def test_reserved_preference_treated_as_medium(self):
        assert RouterPreference.from_bits(0b10) == RouterPreference.MEDIUM

    def test_m_o_flags(self):
        ra = RouterAdvertisement(managed=True, other_config=True)
        decoded = round_trip(ra)
        assert decoded.managed and decoded.other_config

    def test_dnssl_round_trip(self):
        """No testbed RA sets DNSSL (RFC 8106 §5.2), so it is not
        modelled: an RA carrying one decodes it as an opaque option and
        re-encodes to the same bytes."""
        # Reserved, lifetime 1800, "rfc8925.com", zero padding to 24 bytes.
        body = b"\x00\x00\x00\x00\x07\x08\x07rfc8925\x03com\x00" + b"\x00" * 3
        option = NdOption(NdOptionType.DNSSL, body)
        wire = encode_icmpv6(RouterAdvertisement(options=(option,)), SRC, DST)
        assert wire.endswith(bytes([NdOptionType.DNSSL, 3]) + body)
        decoded = decode_icmpv6(wire, SRC, DST)
        assert decoded.options == (option,)
        assert encode_icmpv6(decoded, SRC, DST) == wire

    def test_rdnss_requires_server(self):
        with pytest.raises(ValueError):
            RdnssOption(()).encode()

    def test_unknown_option_carried_opaquely(self):
        ra = RouterAdvertisement(options=(NdOption(200, b"\x00" * 6),))
        decoded = round_trip(ra)
        assert isinstance(decoded.options[0], NdOption)
        assert decoded.options[0].option_type == 200


class TestNeighborMessages:
    def test_rs_round_trip(self):
        decoded = round_trip(RouterSolicitation(source_lladdr=MAC))
        assert decoded.source_lladdr == MAC

    def test_rs_without_lladdr(self):
        decoded = round_trip(RouterSolicitation())
        assert decoded.source_lladdr is None

    def test_ns_round_trip(self):
        target = IPv6Address("fd00:976a::9")
        decoded = round_trip(NeighborSolicitation(target=target, source_lladdr=MAC))
        assert decoded.target == target
        assert decoded.source_lladdr == MAC

    def test_na_round_trip_flags(self):
        na = NeighborAdvertisement(
            target=IPv6Address("fd00:976a::9"),
            router=True,
            solicited=True,
            override=False,
            target_lladdr=MAC,
        )
        decoded = round_trip(na)
        assert decoded.router and decoded.solicited and not decoded.override
        assert decoded.target_lladdr == MAC

    def test_nd_zero_length_option_rejected(self):
        ns = NeighborSolicitation(target=IPv6Address("::1"), source_lladdr=MAC)
        wire = bytearray(encode_icmpv6(ns, SRC, DST))
        wire[25] = 0  # option length byte -> 0
        # Checksum now wrong too; decode should raise either way.
        with pytest.raises(ValueError):
            decode_icmpv6(bytes(wire), SRC, DST, verify=False)

    def test_truncated_message(self):
        with pytest.raises(ValueError):
            decode_icmpv6(b"\x00" * 7, SRC, DST)
