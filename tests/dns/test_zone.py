"""Authoritative zones: lookups, NXDOMAIN vs NODATA, CNAME chasing."""

import pytest

from repro.dns.name import DnsName
from repro.dns.rdata import RCode, RRType
from repro.dns.zone import Zone, ZoneError
from repro.net.addresses import IPv4Address


@pytest.fixture
def zone():
    z = Zone("anl.gov")
    z.add_a("vpn.anl.gov", "130.202.228.253")
    z.add_aaaa("www.anl.gov", "2620:0:dc0::80")
    z.add_a("www.anl.gov", "130.202.0.80")
    z.add_cname("intranet.anl.gov", "www.anl.gov")
    return z


class TestLookups:
    def test_positive_a(self, zone):
        result = zone.lookup("vpn.anl.gov", RRType.A)
        assert result.rcode == RCode.NOERROR
        assert result.records[0].rdata.address == IPv4Address("130.202.228.253")

    def test_nxdomain_vs_nodata(self, zone):
        # vpn.anl.gov exists but has no AAAA: NODATA (NOERROR, empty).
        nodata = zone.lookup("vpn.anl.gov", RRType.AAAA)
        assert nodata.rcode == RCode.NOERROR and not nodata.records
        # nonexistent.anl.gov does not exist at all: NXDOMAIN.
        nx = zone.lookup("nonexistent.anl.gov", RRType.A)
        assert nx.rcode == RCode.NXDOMAIN

    def test_case_insensitive(self, zone):
        assert zone.lookup("VPN.ANL.GOV", RRType.A).records

    def test_cname_chase(self, zone):
        result = zone.lookup("intranet.anl.gov", RRType.A)
        assert result.cname_chain[0].rrtype == RRType.CNAME
        assert result.records[0].rdata.address == IPv4Address("130.202.0.80")
        assert len(result.answers) == 2

    def test_cname_query_direct(self, zone):
        result = zone.lookup("intranet.anl.gov", RRType.CNAME)
        assert result.records[0].rrtype == RRType.CNAME

    def test_cname_out_of_zone_target(self, zone):
        zone.add_cname("ext.anl.gov", "www.example.org")
        result = zone.lookup("ext.anl.gov", RRType.A)
        assert result.rcode == RCode.NOERROR
        assert result.cname_chain and not result.records

    def test_cname_loop_servfail(self):
        z = Zone("loop.test")
        z.add_cname("a.loop.test", "b.loop.test")
        z.add_cname("b.loop.test", "a.loop.test")
        assert z.lookup("a.loop.test", RRType.A).rcode == RCode.SERVFAIL

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

    def test_cname_conflict(self, zone):
        with pytest.raises(ZoneError):
            zone.add_cname("vpn.anl.gov", "other.anl.gov")

    def test_remove(self, zone):
        assert zone.remove("vpn.anl.gov", RRType.A) == 1
        assert zone.lookup("vpn.anl.gov", RRType.A).rcode == RCode.NXDOMAIN

    def test_remove_all_types(self, zone):
        assert zone.remove("www.anl.gov") == 2

    def test_remove_prunes_empty_non_terminals(self, zone):
        zone.add_a("deep.sub.anl.gov", "130.202.1.1")
        assert zone.remove("deep.sub.anl.gov") == 1
        # Nothing is left at or below sub.anl.gov, so it no longer exists.
        assert zone.lookup("sub.anl.gov", RRType.A).rcode == RCode.NXDOMAIN
        assert zone.lookup("deep.sub.anl.gov", RRType.A).rcode == RCode.NXDOMAIN
        assert zone.lookup("anl.gov", RRType.SOA).rcode == RCode.NOERROR

    def test_remove_keeps_name_with_descendants(self, zone):
        zone.add_a("sub.anl.gov", "130.202.1.2")
        zone.add_a("deep.sub.anl.gov", "130.202.1.1")
        assert zone.remove("sub.anl.gov") == 1
        # deep.sub.anl.gov still hangs below it: NODATA, not NXDOMAIN.
        result = zone.lookup("sub.anl.gov", RRType.A)
        assert result.rcode == RCode.NOERROR and not result.records

    def test_remove_missing_type_is_a_no_op(self, zone):
        version = zone.version
        assert zone.remove("vpn.anl.gov", RRType.AAAA) == 0
        assert zone.remove("absent.anl.gov") == 0
        assert zone.version == version
        assert zone.lookup("vpn.anl.gov", RRType.A).records

    def test_cname_allowed_after_owner_emptied(self, zone):
        zone.remove("vpn.anl.gov")
        zone.add_cname("vpn.anl.gov", "www.anl.gov")
        assert zone.lookup("vpn.anl.gov", RRType.A).cname_chain

    def test_covers(self, zone):
        assert zone.covers("deep.sub.anl.gov")
        assert not zone.covers("example.org")

    def test_len_and_repr(self, zone):
        assert len(zone) >= 5
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
