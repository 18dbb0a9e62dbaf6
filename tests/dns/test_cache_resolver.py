"""DNS cache TTL behaviour and the stub resolver's search-list and
failover logic — tested against in-process servers."""

import pytest

from repro.dns.cache import DnsCache
from repro.dns.message import DnsMessage, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, OpaqueRData, RCode, RRType
from repro.dns.resolver import DnsTransportError, ResolverConfig, SearchOrder, StubResolver
from repro.dns.server import DnsServer, ForwardingDnsServer
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_zone():
    z = Zone("example.com")
    z.add_a("web.example.com", "192.0.2.10")
    z.add_aaaa("web.example.com", "2001:db8::10")
    return z


def direct_transport(server_obj):
    """A transport that short-circuits to a DnsServer object."""

    def transport(server_addr, wire, timeout):
        return server_obj.handle_query(wire)

    return transport


SERVER_V4 = IPv4Address("192.0.2.53")


class TestCache:
    def test_positive_hit_until_ttl(self, clock):
        cache = DnsCache(clock)
        rr = ResourceRecord(DnsName("a.example"), RRType.A, 60, A(IPv4Address("1.2.3.4")))
        cache.put_positive("a.example", RRType.A, [rr])
        assert cache.get("a.example", RRType.A) is not None
        clock.now = 59.0
        assert cache.get("a.example", RRType.A) is not None
        clock.now = 61.0
        assert cache.get("a.example", RRType.A) is None

    def test_negative_entry(self, clock):
        cache = DnsCache(clock, negative_ttl=30)
        cache.put_negative("nx.example", RRType.A, RCode.NXDOMAIN)
        entry = cache.get("nx.example", RRType.A)
        assert entry is not None and entry.rcode == RCode.NXDOMAIN
        clock.now = 31.0
        assert cache.get("nx.example", RRType.A) is None

    def test_eviction_bounded(self, clock):
        cache = DnsCache(clock, max_entries=10)
        for i in range(25):
            rr = ResourceRecord(DnsName(f"h{i}.example"), RRType.A, 300, A(IPv4Address("1.2.3.4")))
            cache.put_positive(f"h{i}.example", RRType.A, [rr])
        assert len(cache) <= 10

    def test_hit_miss_counters(self, clock):
        cache = DnsCache(clock)
        cache.get("x.example", RRType.A)
        rr = ResourceRecord(DnsName("x.example"), RRType.A, 300, A(IPv4Address("1.2.3.4")))
        cache.put_positive("x.example", RRType.A, [rr])
        cache.get("x.example", RRType.A)
        assert cache.misses == 1 and cache.hits == 1

    def test_min_ttl_of_rrset(self, clock):
        cache = DnsCache(clock)
        rrs = [
            ResourceRecord(DnsName("m.example"), RRType.A, 300, A(IPv4Address("1.1.1.1"))),
            ResourceRecord(DnsName("m.example"), RRType.A, 10, A(IPv4Address("2.2.2.2"))),
        ]
        cache.put_positive("m.example", RRType.A, rrs)
        clock.now = 11.0
        assert cache.get("m.example", RRType.A) is None


class TestResolver:
    def _resolver(self, clock, server=None, **cfg):
        server = server or DnsServer([make_zone()])
        config = ResolverConfig(servers=(SERVER_V4,), **cfg)
        return StubResolver(config, direct_transport(server), clock)

    def test_basic_a(self, clock):
        resolver = self._resolver(clock)
        result = resolver.resolve("web.example.com", RRType.A)
        assert result.ok
        assert result.addresses() == [IPv4Address("192.0.2.10")]

    def test_caching_avoids_second_query(self, clock):
        resolver = self._resolver(clock)
        resolver.resolve("web.example.com", RRType.A)
        sent = resolver.queries_sent
        result = resolver.resolve("web.example.com", RRType.A)
        assert result.from_cache
        assert resolver.queries_sent == sent

    def test_negative_cached(self, clock):
        resolver = self._resolver(clock)
        resolver.resolve("nx.example.com", RRType.A)
        sent = resolver.queries_sent
        result = resolver.resolve("nx.example.com", RRType.A)
        assert result.rcode == RCode.NXDOMAIN and result.from_cache
        assert resolver.queries_sent == sent

    def test_answers_of_other_types_dropped(self, clock):
        """The resolver keeps only the answers of the type it asked for,
        and chases no CNAME among the others."""
        alias, target = DnsName("alias.example.com"), DnsName("web.example.com")
        answers = (
            ResourceRecord(alias, RRType.CNAME, 60, OpaqueRData(RRType.CNAME, target.encode())),
            ResourceRecord(target, RRType.A, 60, A(IPv4Address("192.0.2.10"))),
        )

        def transport(server_addr, wire, timeout):
            return DnsMessage.decode(wire).response(answers=answers).encode()

        resolver = StubResolver(ResolverConfig(servers=(SERVER_V4,)), transport, clock)
        result = resolver.resolve("alias.example.com", RRType.A)
        assert result.ok and result.records == [answers[1]]
        assert resolver.queries_sent == 1

    def test_failover_to_second_server(self, clock):
        healthy = DnsServer([make_zone()])
        calls = {"dead": 0}

        def transport(server_addr, wire, timeout):
            if server_addr == IPv4Address("192.0.2.66"):
                calls["dead"] += 1
                return None  # dead server
            return healthy.handle_query(wire)

        config = ResolverConfig(servers=(IPv4Address("192.0.2.66"), SERVER_V4))
        resolver = StubResolver(config, transport, clock)
        result = resolver.resolve("web.example.com", RRType.A)
        assert result.ok
        assert result.server_used == SERVER_V4
        assert calls["dead"] == 1

    def test_all_servers_dead(self, clock):
        config = ResolverConfig(servers=(SERVER_V4,), attempts=2)
        resolver = StubResolver(config, lambda s, w, t: None, clock)
        with pytest.raises(DnsTransportError):
            resolver.resolve("web.example.com", RRType.A)

    def test_no_servers_configured(self, clock):
        resolver = StubResolver(ResolverConfig(), lambda s, w, t: None, clock)
        with pytest.raises(DnsTransportError):
            resolver.resolve("web.example.com", RRType.A)

    def test_malformed_response_skipped(self, clock):
        healthy = DnsServer([make_zone()])
        first = {"done": False}

        def transport(server_addr, wire, timeout):
            if not first["done"]:
                first["done"] = True
                return b"garbage"
            return healthy.handle_query(wire)

        resolver = StubResolver(ResolverConfig(servers=(SERVER_V4,)), transport, clock)
        assert resolver.resolve("web.example.com", RRType.A).ok

    def test_id_mismatch_rejected(self, clock):
        healthy = DnsServer([make_zone()])
        count = {"n": 0}

        def transport(server_addr, wire, timeout):
            raw = healthy.handle_query(wire)
            count["n"] += 1
            if count["n"] == 1:
                # Flip the transaction id on the first reply (spoof).
                return (int.from_bytes(raw[:2], "big") ^ 0xFFFF).to_bytes(2, "big") + raw[2:]
            return raw

        resolver = StubResolver(ResolverConfig(servers=(SERVER_V4,)), transport, clock)
        assert resolver.resolve("web.example.com", RRType.A).ok
        assert count["n"] == 2


class TestSearchList:
    def _server(self):
        z = make_zone()
        local = Zone("corp.test")
        local.add_a("intranet.corp.test", "10.1.1.1")
        return DnsServer([z, local])

    def test_single_label_appends_suffix(self, clock):
        config = ResolverConfig(
            servers=(SERVER_V4,), search_domains=("corp.test",), ndots=1
        )
        resolver = StubResolver(config, direct_transport(self._server()), clock)
        result = resolver.resolve("intranet", RRType.A)
        assert result.ok
        assert result.queried_name == DnsName("intranet.corp.test")

    def test_fqdn_with_trailing_dot_never_suffixed(self, clock):
        config = ResolverConfig(
            servers=(SERVER_V4,), search_domains=("corp.test",)
        )
        resolver = StubResolver(config, direct_transport(self._server()), clock)
        result = resolver.resolve("intranet.", RRType.A)
        assert result.rcode == RCode.NXDOMAIN or result.rcode == RCode.REFUSED

    def test_suffix_first_order_figure9(self, clock):
        """nslookup-style: suffix tried first for short names."""
        local = Zone("corp.test")
        local.add_a("web.example.com.corp.test", "10.9.9.9")  # shadow!
        server = DnsServer([make_zone(), local])
        config = ResolverConfig(
            servers=(SERVER_V4,),
            search_domains=("corp.test",),
            search_order=SearchOrder.SUFFIX_FIRST,
            ndots=100,  # force suffix-first even for dotted names
        )
        resolver = StubResolver(config, direct_transport(server), clock)
        result = resolver.resolve("web.example.com", RRType.A)
        assert result.queried_name == DnsName("web.example.com.corp.test")
        assert result.addresses() == [IPv4Address("10.9.9.9")]

    def test_search_never(self, clock):
        config = ResolverConfig(
            servers=(SERVER_V4,),
            search_domains=("corp.test",),
            search_order=SearchOrder.NEVER,
        )
        resolver = StubResolver(config, direct_transport(self._server()), clock)
        result = resolver.resolve("intranet", RRType.A)
        assert not result.ok


class TestForwardingServer:
    def test_forwards_unknown_zones(self, clock):
        upstream = DnsServer([make_zone()])
        forwarder = ForwardingDnsServer(upstream.handle_query)
        query = DnsMessage.query("web.example.com", RRType.A, ident=3)
        response = DnsMessage.decode(forwarder.handle_query(query.encode()))
        assert response.answers[0].rdata.address == IPv4Address("192.0.2.10")
        assert forwarder.forwarded == 1

    def test_authoritative_zones_answered_locally(self, clock):
        upstream = DnsServer([make_zone()])
        local = Zone("local.test")
        local.add_a("box.local.test", "10.0.0.1")
        forwarder = ForwardingDnsServer(upstream.handle_query, [local])
        query = DnsMessage.query("box.local.test", RRType.A, ident=4)
        response = DnsMessage.decode(forwarder.handle_query(query.encode()))
        assert response.answers[0].rdata.address == IPv4Address("10.0.0.1")
        assert forwarder.forwarded == 0

    def test_dead_upstream_servfail(self, clock):
        forwarder = ForwardingDnsServer(lambda wire: None)
        query = DnsMessage.query("x.example.com", ident=5)
        response = DnsMessage.decode(forwarder.handle_query(query.encode()))
        assert response.rcode == RCode.SERVFAIL


class TestDnsServer:
    def test_refused_outside_zones(self):
        server = DnsServer([make_zone()])
        query = DnsMessage.query("other.org", ident=1)
        response = DnsMessage.decode(server.handle_query(query.encode()))
        assert response.rcode == RCode.REFUSED

    def test_nxdomain_carries_soa(self):
        server = DnsServer([make_zone()])
        query = DnsMessage.query("nx.example.com", ident=2)
        response = DnsMessage.decode(server.handle_query(query.encode()))
        assert response.rcode == RCode.NXDOMAIN
        assert response.authorities[0].rrtype == RRType.SOA

    def test_malformed_query_dropped(self):
        server = DnsServer([make_zone()])
        assert server.handle_query(b"\x00" * 5) is None

    def test_response_message_ignored(self):
        server = DnsServer([make_zone()])
        query = DnsMessage.query("web.example.com", ident=1)
        response = DnsMessage.decode(server.handle_query(query.encode()))
        assert server.handle_query(response.encode()) is None

    def test_query_log(self):
        server = DnsServer([make_zone()], name="logger")
        server.handle_query(DnsMessage.query("web.example.com", ident=1).encode(), client="c1")
        assert server.query_log[0].client == "c1"
        assert server.query_log[0].answered_from == "zone"

    def test_most_specific_zone_wins(self):
        parent = Zone("example.com")
        parent.add_a("a.sub.example.com", "192.0.2.1")
        child = Zone("sub.example.com")
        child.add_a("a.sub.example.com", "192.0.2.2")
        server = DnsServer([parent, child])
        query = DnsMessage.query("a.sub.example.com", ident=1)
        response = DnsMessage.decode(server.handle_query(query.encode()))
        assert response.answers[0].rdata.address == IPv4Address("192.0.2.2")
