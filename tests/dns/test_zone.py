"""Authoritative zones: lookups, NXDOMAIN vs NODATA, empty non-terminals."""

import pytest

from repro.dns.name import DnsName
from repro.dns.rdata import RCode, RRType
from repro.dns.zone import Zone, ZoneError
from repro.net.addresses import IPv4Address, IPv6Address


@pytest.fixture
def zone():
    z = Zone("anl.gov")
    z.add_a("vpn.anl.gov", "130.202.228.253")
    z.add_aaaa("www.anl.gov", "2620:0:dc0::80")
    z.add_a("www.anl.gov", "130.202.0.80")
    return z


class TestLookups:
    def test_positive_a(self, zone):
        result = zone.lookup("vpn.anl.gov", RRType.A)
        assert result.rcode == RCode.NOERROR
        assert result.records[0].rdata.address == IPv4Address("130.202.228.253")
        # An address object is kept as given, a string is parsed (above),
        # and an address of the other family is refused.
        v4, v6 = IPv4Address("130.202.0.81"), IPv6Address("2620:0:dc0::81")
        zone.add_a("obj.anl.gov", v4).add_aaaa("obj.anl.gov", v6)
        assert zone.lookup("obj.anl.gov", RRType.A).records[0].rdata.address is v4
        assert zone.lookup("obj.anl.gov", RRType.AAAA).records[0].rdata.address is v6
        with pytest.raises(ValueError):
            zone.add_a("wrong.anl.gov", v6)
        with pytest.raises(ValueError):
            zone.add_aaaa("wrong.anl.gov", v4)

    def test_nxdomain_vs_nodata(self, zone):
        # vpn.anl.gov exists but has no AAAA: NODATA (NOERROR, empty).
        nodata = zone.lookup("vpn.anl.gov", RRType.AAAA)
        assert nodata.rcode == RCode.NOERROR and not nodata.records
        # nonexistent.anl.gov does not exist at all: NXDOMAIN.
        nx = zone.lookup("nonexistent.anl.gov", RRType.A)
        assert nx.rcode == RCode.NXDOMAIN

    def test_cname_query_direct(self, zone):
        # Zones hold no CNAME, so asking for one at a name that exists is
        # NODATA (NOERROR, empty), and at one that does not is NXDOMAIN.
        nodata = zone.lookup("www.anl.gov", RRType.CNAME)
        assert nodata.rcode == RCode.NOERROR and not nodata.records
        nx = zone.lookup("intranet.anl.gov", RRType.CNAME)
        assert nx.rcode == RCode.NXDOMAIN

    def test_case_insensitive(self, zone):
        assert zone.lookup("VPN.ANL.GOV", RRType.A).records

    def test_empty_non_terminal(self, zone):
        zone.add_a("deep.sub.anl.gov", "130.202.1.1")
        # "sub.anl.gov" has no records but exists structurally: NODATA.
        result = zone.lookup("sub.anl.gov", RRType.A)
        assert result.rcode == RCode.NOERROR and not result.records

    def test_apex_soa(self, zone):
        result = zone.lookup("anl.gov", RRType.SOA)
        assert result.records[0].rrtype == RRType.SOA

    def test_out_of_zone_raises(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup("example.com", RRType.A)


class TestMutation:
    def test_add_out_of_zone(self, zone):
        with pytest.raises(ZoneError):
            zone.add_a("www.example.com", "1.2.3.4")

    def test_covers(self, zone):
        assert zone.covers("deep.sub.anl.gov")
        assert not zone.covers("example.org")

    def test_len_and_repr(self, zone):
        assert len(zone) == 4  # the SOA and three records
        assert "anl.gov" in repr(zone)

    def test_negative_soa_uses_minimum_ttl(self, zone):
        soa_rr = zone.negative_soa()
        assert soa_rr.ttl == zone.soa.minimum


class TestScaling:
    def test_nxdomain_lookup_does_not_scan_the_zone(self, monkeypatch):
        z = Zone("supercomputing.org")
        for index in range(2000):
            z.add_a(f"host{index}.supercomputing.org", f"198.18.{index >> 8}.{index & 255}")
        calls = []
        original = DnsName.is_subdomain_of

        def counted(self, other):
            calls.append(self)
            return original(self, other)

        monkeypatch.setattr(DnsName, "is_subdomain_of", counted)
        result = z.lookup("nx.supercomputing.org", RRType.A)
        assert result.rcode == RCode.NXDOMAIN
        # Only covers() asks; existence is a single index probe.
        assert calls == [DnsName("nx.supercomputing.org")]
