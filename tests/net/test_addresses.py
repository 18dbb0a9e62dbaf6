"""Address utilities: MAC, EUI-64, RFC 6052 embedding, classification."""

import pytest

from repro.net.addresses import (
    embed_ipv4_in_nat64,
    eui64_interface_id,
    extract_ipv4_from_nat64,
    ipv4_scope,
    IPv4Address,
    ipv6_scope,
    IPv6Address,
    IPv6Network,
    is_gua,
    is_nat64_synthesized,
    is_ula,
    link_local_from_mac,
    MAC_BROADCAST,
    MacAddress,
    multicast_mac_for_ipv6,
    slaac_address,
    solicited_node_multicast,
)


class TestMacAddress:
    def test_parse_colon_form(self):
        mac = MacAddress.parse("00:00:59:aa:c6:ab")
        assert str(mac) == "00:00:59:aa:c6:ab"

    def test_parse_dash_form_from_paper_figure_7(self):
        mac = MacAddress.parse("00-00-59-AA-C6-AB")
        assert str(mac) == "00:00:59:aa:c6:ab"

    def test_parse_bare_hex(self):
        assert MacAddress.parse("0000AABBCCDD").value == 0x0000AABBCCDD

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            MacAddress.parse("not-a-mac")

    def test_parse_rejects_short(self):
        with pytest.raises(ValueError):
            MacAddress.parse("00:11:22:33:44")

    def test_round_trip_bytes(self):
        mac = MacAddress(0x02AABBCCDDEE)
        assert MacAddress.from_bytes(mac.to_bytes()) == mac

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            MacAddress.from_bytes(b"\x00" * 5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    def test_broadcast_flags(self):
        assert MAC_BROADCAST.is_broadcast
        assert MAC_BROADCAST.is_multicast

    def test_multicast_bit(self):
        assert MacAddress.parse("01:00:5e:00:00:01").is_multicast
        assert not MacAddress.parse("00:00:5e:00:00:01").is_multicast

    def test_locally_administered_bit(self):
        assert MacAddress.parse("02:00:00:00:00:01").is_locally_administered
        assert not MacAddress.parse("00:00:59:aa:c6:ab").is_locally_administered

    def test_ordering(self):
        assert MacAddress(1) < MacAddress(2)


class TestEui64:
    def test_u_bit_flip_and_fffe_insertion(self):
        mac = MacAddress.parse("00:00:59:aa:c6:ab")
        iid = eui64_interface_id(mac)
        assert iid == 0x0200_59FF_FEAA_C6AB

    def test_link_local(self):
        mac = MacAddress.parse("00:00:59:aa:c6:ab")
        assert link_local_from_mac(mac) == IPv6Address("fe80::200:59ff:feaa:c6ab")

    def test_slaac_address_paper_ula(self):
        # Figure 7's Windows XP: fd00:976a::/64 + 00:00:59:aa:c6:ab
        mac = MacAddress.parse("00:00:59:aa:c6:ab")
        addr = slaac_address(IPv6Network("fd00:976a::/64"), mac)
        assert addr == IPv6Address("fd00:976a::200:59ff:feaa:c6ab")

    def test_slaac_requires_64(self):
        with pytest.raises(ValueError):
            slaac_address(IPv6Network("fd00::/48"), MacAddress(1))


class TestRfc6052:
    def test_well_known_prefix_figure_7(self):
        # sc24.supercomputing.org 190.92.158.4 -> 64:ff9b::be5c:9e04
        v6 = embed_ipv4_in_nat64(IPv4Address("190.92.158.4"))
        assert v6 == IPv6Address("64:ff9b::be5c:9e04")

    def test_figure_10_vpn_anl(self):
        # vpn.anl.gov 130.202.228.253 -> 64:ff9b::82ca:e4fd
        v6 = embed_ipv4_in_nat64(IPv4Address("130.202.228.253"))
        assert v6 == IPv6Address("64:ff9b::82ca:e4fd")

    def test_round_trip_well_known(self):
        addr = IPv4Address("203.0.113.7")
        assert extract_ipv4_from_nat64(embed_ipv4_in_nat64(addr)) == addr

    @pytest.mark.parametrize("plen", [32, 40, 48, 56, 64, 96])
    def test_round_trip_all_prefix_lengths(self, plen):
        prefix = IPv6Network(f"2001:db8::/{plen}")
        addr = IPv4Address("192.0.2.33")
        embedded = embed_ipv4_in_nat64(addr, prefix)
        assert embedded in prefix
        assert extract_ipv4_from_nat64(embedded, prefix) == addr

    def test_u_octet_zero(self):
        for plen in (32, 40, 48, 56, 64):
            prefix = IPv6Network(f"2001:db8::/{plen}")
            embedded = embed_ipv4_in_nat64(IPv4Address("255.255.255.255"), prefix)
            assert embedded.packed[8] == 0

    def test_unsupported_prefix_length(self):
        with pytest.raises(ValueError):
            embed_ipv4_in_nat64(IPv4Address("1.2.3.4"), IPv6Network("2001:db8::/80"))

    def test_extract_outside_prefix(self):
        with pytest.raises(ValueError):
            extract_ipv4_from_nat64(IPv6Address("2001:db8::1"))

    def test_is_nat64_synthesized(self):
        assert is_nat64_synthesized(IPv6Address("64:ff9b::1.2.3.4"))
        assert not is_nat64_synthesized(IPv6Address("2001:db8::1"))


class TestMulticastMapping:
    def test_solicited_node(self):
        addr = IPv6Address("fd00:976a::200:59ff:feaa:c6ab")
        assert solicited_node_multicast(addr) == IPv6Address("ff02::1:ffaa:c6ab")

    def test_multicast_mac_v6(self):
        mac = multicast_mac_for_ipv6(IPv6Address("ff02::1:ffaa:c6ab"))
        assert str(mac) == "33:33:ff:aa:c6:ab"

    def test_multicast_mac_v6_rejects_unicast(self):
        with pytest.raises(ValueError):
            multicast_mac_for_ipv6(IPv6Address("2001:db8::1"))


class TestClassification:
    def test_ula_from_paper(self):
        assert is_ula(IPv6Address("fd00:976a::9"))
        assert is_ula(IPv6Address("fd00:976a::10"))
        assert not is_ula(IPv6Address("2607:fb90:9bda:a425::1"))

    def test_gua(self):
        assert is_gua(IPv6Address("2607:fb90:9bda:a425::1"))
        assert not is_gua(IPv6Address("fe80::1"))
        assert not is_gua(IPv6Address("fd00::1"))

    def test_scopes(self):
        assert ipv6_scope(IPv6Address("fe80::1")) == 0x2
        assert ipv6_scope(IPv6Address("::1")) == 0x2
        assert ipv6_scope(IPv6Address("2001:db8::1")) == 0xE
        assert ipv6_scope(IPv6Address("fd00::1")) == 0xE  # ULAs are global scope
        assert ipv6_scope(IPv6Address("ff02::1")) == 0x2
        assert ipv6_scope(IPv6Address("ff0e::1")) == 0xE

    def test_ipv4_scopes(self):
        assert ipv4_scope(IPv4Address("169.254.1.1")) == 0x2
        assert ipv4_scope(IPv4Address("127.0.0.1")) == 0x2
        assert ipv4_scope(IPv4Address("192.168.12.50")) == 0xE
