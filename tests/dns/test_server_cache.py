"""The wire-template response cache must be observably transparent:
identical answers, identical query logs and counters, invalidated the
moment the zone data an answer reads changes, and bounded by evicting
the least recently used answer."""

import dataclasses
import gc
import tracemalloc
import weakref
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.testbed import Testbed, TestbedConfig
from repro.dns.message import DnsMessage
from repro.dns.rdata import RRType
from repro.dns.server import DnsServer, ForwardingDnsServer
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address, IPv6Network
from repro.xlat.dns64 import DNS64Resolver


def make_zone():
    zone = Zone("example.test")
    zone.add_a("web.example.test", "192.0.2.10")
    zone.add_aaaa("web.example.test", "2001:db8::10")
    return zone


def query_wire(name, rrtype, ident=0x1234):
    return DnsMessage.query(name, rrtype, ident=ident).encode()


class TestResponseCache:
    def test_repeat_query_hits_cache_with_identical_wire(self):
        server = DnsServer([make_zone()])
        wire = query_wire("web.example.test", RRType.A)
        first = server.handle_query(wire)
        second = server.handle_query(wire)
        assert first == second
        assert (server.cache_misses, server.cache_hits) == (1, 1)

    def test_hit_patches_ident_only(self):
        server = DnsServer([make_zone()])
        first = server.handle_query(query_wire("web.example.test", RRType.A, ident=0x1111))
        second = server.handle_query(query_wire("web.example.test", RRType.A, ident=0x2222))
        assert first[:2] == b"\x11\x11" and second[:2] == b"\x22\x22"
        assert first[2:] == second[2:]
        assert server.cache_hits == 1

    def test_query_log_replayed_per_hit_with_live_client(self):
        server = DnsServer([make_zone()])
        wire = query_wire("web.example.test", RRType.A)
        server.handle_query(wire, client="alice")
        server.handle_query(wire, client="bob")
        assert [entry.client for entry in server.query_log] == ["alice", "bob"]
        assert {entry.answered_from for entry in server.query_log} == {"zone"}

    def test_zone_change_invalidates(self):
        zone = make_zone()
        server = DnsServer([zone])
        wire = query_wire("new.example.test", RRType.A)
        first = server.handle_query(wire)
        zone.add_a("new.example.test", "192.0.2.77")
        second = server.handle_query(wire)
        assert first != second  # NXDOMAIN became an answer
        assert server.cache_hits == 0 and server.cache_misses == 2

    def test_malformed_and_response_wires_not_cached(self):
        server = DnsServer([make_zone()])
        assert server.handle_query(b"\x00\x01") is None
        response = DnsMessage.query("web.example.test", RRType.A).response()
        assert server.handle_query(response.encode()) is None
        assert server.cache_misses == 0 and not server._response_cache

    def test_poison_counter_replayed_on_hits(self):
        upstream = DnsServer([make_zone()])
        poison = PoisonedDNSServer(
            InterventionConfig(poison_address=IPv4Address("23.153.8.71")),
            upstream.handle_query,
        )
        wire = query_wire("web.example.test", RRType.A)
        for _ in range(3):
            poison.handle_query(wire)
        assert poison.poison_answers == 3

    def test_dns64_counters_replayed_on_hits(self):
        resolver = DNS64Resolver([make_zone()])
        wire = query_wire("web.example.test", RRType.AAAA)
        for _ in range(2):
            assert resolver.handle_query(wire) is not None
        uncached = DNS64Resolver([make_zone()])
        uncached.handle_query(wire)
        assert resolver.synthesized == 2 * uncached.synthesized
        assert resolver.passed_through == 2 * uncached.passed_through

    def test_forwarded_answers_bypass_cache(self):
        upstream = DnsServer([make_zone()])
        forwarder = ForwardingDnsServer(upstream.handle_query)
        wire = query_wire("web.example.test", RRType.A)
        forwarder.handle_query(wire)
        forwarder.handle_query(wire)
        assert forwarder.cache_hits == 0 and forwarder.forwarded == 2


class TestPerNameValidity:
    """A zone write invalidates only the answers whose name it touched."""

    def test_write_at_an_unrelated_name_keeps_the_hit(self):
        zone = make_zone()
        zone.add_a("v4.example.test", "192.0.2.20")
        server = DNS64Resolver([zone])
        wire = query_wire("v4.example.test", RRType.AAAA)
        first = server.handle_query(wire)
        zone.add_a("other.example.test", "192.0.2.99")
        assert server.handle_query(wire) == first
        assert (server.cache_misses, server.cache_hits) == (1, 1)
        # Re-stamped with the memo, so the next hit matches it by identity.
        assert server._response_cache[wire[2:]].epoch is server._cache_epoch()


class TestEpochMemo:
    """The epoch a hit compares is memoized; only its inputs' writers
    clear the memo, and zones hold their servers weakly."""

    def test_a_hit_matches_the_memo_by_identity(self):
        server = DnsServer([make_zone()])
        wire = query_wire("web.example.test", RRType.A)
        server.handle_query(wire)
        server.handle_query(wire)
        assert server._response_cache[wire[2:]].epoch is server._epoch is not None

    def test_epoch_inputs_are_read_only(self):
        """The epoch holds only zone versions, because nothing else an
        answer depends on can change once a server is built."""
        zone = make_zone()
        upstream = DNS64Resolver([zone])
        poisoner = PoisonedDNSServer(
            InterventionConfig(poison_address=IPv4Address("23.153.8.71")), upstream.handle_query
        )
        rpz = RPZPolicyServer(RpzConfig(poison_address=IPv4Address("23.153.8.71")), upstream.handle_query)
        for server in (poisoner, rpz):
            with pytest.raises(AttributeError):
                server.config = server.config
        with pytest.raises(AttributeError):
            upstream.prefix = IPv6Network("2001:db8:64::/96")
        with pytest.raises(AttributeError):
            zone.version = 7
        zone.add_a("new.example.test", "192.0.2.77")
        assert zone.version == 4
        assert upstream._cache_epoch() == (4,)

    def test_a_server_without_zones_hits_its_empty_epoch_memo(self):
        """The poisoner's epoch is ``()``, which is falsy: a hit must
        still take it from the memo rather than rebuild it."""
        poisoner = PoisonedDNSServer(
            InterventionConfig(poison_address=IPv4Address("23.153.8.71")),
            DnsServer([make_zone()]).handle_query,
        )
        wire = query_wire("web.example.test", RRType.A)
        poisoner.handle_query(wire)
        with patch.object(PoisonedDNSServer, "_cache_epoch", side_effect=AssertionError):
            poisoner.handle_query(wire)
        assert poisoner.cache_hits == 1 and poisoner._epoch == ()

    def test_a_write_to_a_zone_two_servers_serve_clears_both_memos(self):
        testbed = Testbed(TestbedConfig())
        servers = (testbed.dns64, testbed.carrier_dns_server)
        wire = query_wire("sc24.supercomputing.org", RRType.A)
        for server in servers:
            server.handle_query(wire)
            assert server._epoch is not None
        zone = next(z for z in testbed.zones if z.covers("sc24.supercomputing.org"))
        zone.add_a("new.supercomputing.org", "192.0.2.77")
        for server in servers:
            assert server._epoch is None
            _assert_epoch_is_fresh(server, testbed.zones)

    def test_a_dropped_server_is_collected_while_its_zone_lives(self):
        zone = make_zone()
        server = DNS64Resolver([zone])
        server.handle_query(query_wire("web.example.test", RRType.AAAA))
        dropped = weakref.ref(server)
        del server
        gc.collect()
        assert dropped() is None
        zone.add_a("new.example.test", "192.0.2.77")
        assert zone._watchers == []

    def test_a_fresh_server_per_query_does_not_grow_the_watcher_list(self):
        zone = make_zone()
        server = DnsServer([zone])
        wire = query_wire("web.example.test", RRType.A)
        for _ in range(50):
            fresh = DnsServer([zone])
            assert fresh.handle_query(wire) == server.handle_query(wire)
        # The previous fresh server was alive when the last one registered.
        assert [ref() for ref in zone._watchers] == [server, None, fresh]


class TestEviction:
    def test_hot_record_survives_eviction_pressure(self, monkeypatch):
        monkeypatch.setattr(DnsServer, "_CACHE_LIMIT", 8)
        server = DnsServer([make_zone()])
        hot = query_wire("web.example.test", RRType.A)
        server.handle_query(hot)
        for number in range(40):
            server.handle_query(query_wire(f"cold-{number}.example.test", RRType.A))
            server.handle_query(hot)
        assert server.cache_hits == 40 and server.cache_misses == 41
        assert len(server._response_cache) == 8

    def test_least_recently_used_record_goes_first(self, monkeypatch):
        monkeypatch.setattr(DnsServer, "_CACHE_LIMIT", 2)
        server = DnsServer([make_zone()])
        a, b, c = (query_wire(f"{name}.example.test", RRType.A) for name in "abc")
        for wire in (a, b, a, c, a, b):
            server.handle_query(wire)
        # c evicted b (a was used after b); b's return then evicted c.
        assert (server.cache_misses, server.cache_hits) == (4, 2)


class TestSharedLogEntries:
    def test_client_less_replays_retain_one_pointer_per_entry(self):
        zone = make_zone()
        zone.add_a("v4.example.test", "192.0.2.20")
        server = DNS64Resolver([zone])
        wire = query_wire("v4.example.test", RRType.AAAA)
        server.handle_query(wire)
        assert server.synthesized == 1
        recorded = len(server.query_log)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(10_000):
                server.handle_query(wire)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        entries = len(server.query_log) - recorded
        assert entries == 10_000 * recorded
        assert retained / entries <= 16
        assert server.query_log[-1] is server.query_log[recorded - 1]

    def test_entries_are_immutable_and_hits_with_a_client_get_their_own(self):
        server = DnsServer([make_zone()])
        wire = query_wire("web.example.test", RRType.A)
        server.handle_query(wire)
        server.handle_query(wire, client="alice")
        server.handle_query(wire)
        first, alice, third = server.query_log
        assert (first.client, alice.client, third.client) == (None, "alice", None)
        assert third is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.client = "mallory"


# -- transparency under writes --------------------------------------------
#
# Queries interleaved with zone writes, against a cache of 8 records so
# that eviction runs too.  The server is built over three zones: the
# main one, a zone cut below it (sub) and an unrelated one.  The names
# cover an existing name, a nonexistent one, an empty non-terminal (sub)
# and names in the other zones; the written names add descendants
# (x.*), the apex and an unrelated name.  The poisoner and the RPZ
# server serve no zone: they forward to a DNS64 serving every zone the
# writes reach, so their upstream's answers move with the writes as the
# testbed's do.

_ORIGIN = "example.test"
_QUERIED_NAMES = (
    _ORIGIN,
    *(f"{label}.{_ORIGIN}" for label in ("web", "v4", "sub", "deep.sub", "nx")),
    "elsewhere.test",
    "www.elsewhere.test",
)
_WRITTEN_NAMES = (
    *_QUERIED_NAMES,
    *(f"x.{name}" for name in _QUERIED_NAMES if name != _ORIGIN),
    f"other.{_ORIGIN}",
)
_POISON = IPv4Address("23.153.8.71")


def _cache_zones():
    """The main zone, the zone cut below it and an unrelated zone."""
    main = Zone(_ORIGIN)
    main.add_a(f"web.{_ORIGIN}", "192.0.2.10")
    main.add_aaaa(f"web.{_ORIGIN}", "2001:db8::10")
    main.add_a(f"v4.{_ORIGIN}", "192.0.2.20")
    main.add_a(f"deep.sub.{_ORIGIN}", "192.0.2.30")
    sub = Zone(f"sub.{_ORIGIN}")
    sub.add_a(f"deep.sub.{_ORIGIN}", "198.51.100.30")
    elsewhere = Zone("elsewhere.test")
    elsewhere.add_a("www.elsewhere.test", "198.51.100.40")
    return main, sub, elsewhere


def _upstream_zone():
    zone = Zone("elsewhere.test")
    zone.add_a("www.elsewhere.test", "203.0.113.40")
    zone.add_aaaa("www.elsewhere.test", "2001:db8::40")
    return zone


def _make_server(kind, zones, upstream):
    if kind == "zone":
        return DnsServer(zones)
    if kind == "dns64":
        return DNS64Resolver(zones)
    if kind == "forwarder":
        return ForwardingDnsServer(upstream, zones)
    if kind == "poisoner":
        return PoisonedDNSServer(InterventionConfig(poison_address=_POISON), upstream)
    return RPZPolicyServer(RpzConfig(poison_address=_POISON), upstream)


def _assert_epoch_is_fresh(server, zones):
    """The memoized epoch equals one rebuilt from its inputs."""
    assert server._cache_epoch() == tuple(zone.version for zone in zones)


def _write(zones, how, name, outer):
    """Apply one write to the most specific zone covering ``name`` (the
    main zone when ``outer``)."""
    main, sub, elsewhere = zones
    zone = next(z for z in (elsewhere, main if outer else sub, main) if z.covers(name))
    if how == "add_a":
        zone.add_a(name, "192.0.2.99")
    else:
        zone.add_aaaa(name, "2001:db8::99")


_query_op = st.tuples(
    st.just("query"),
    st.sampled_from(_QUERIED_NAMES),
    st.sampled_from((RRType.A, RRType.AAAA, RRType.TXT)),
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from((None, "alice", "bob")),
)
_write_op = st.tuples(
    st.just("write"),
    st.sampled_from(("add_a", "add_aaaa")),
    st.sampled_from(_WRITTEN_NAMES),
    st.booleans(),
)
_cache_operations = st.lists(
    st.one_of(_query_op, _query_op, _query_op, _write_op, _write_op),
    max_size=60,
)


def _log(server):
    return [(e.name, e.rrtype, e.rcode, e.answered_from, e.client) for e in server.query_log]


@pytest.mark.parametrize("kind", ("zone", "dns64", "forwarder", "poisoner", "rpz"))
@given(operations=_cache_operations)
@example(
    # A write elsewhere keeps the hit; a write at the name or below it
    # does not.
    operations=[
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 1, None),
        ("query", f"sub.{_ORIGIN}", RRType.A, 3, None),
        ("query", f"nx.{_ORIGIN}", RRType.A, 4, None),
        ("write", "add_a", f"other.{_ORIGIN}", False),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 5, "bob"),
        ("write", "add_aaaa", f"v4.{_ORIGIN}", False),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 6, None),
        ("write", "add_a", f"x.nx.{_ORIGIN}", False),
        ("query", f"nx.{_ORIGIN}", RRType.A, 7, None),
        ("write", "add_a", f"x.sub.{_ORIGIN}", True),
        ("query", f"sub.{_ORIGIN}", RRType.A, 8, None),
    ]
)
@settings(max_examples=150, deadline=None)
def test_cache_is_transparent_under_writes(kind, operations):
    """Every answer, the query log and every ``_CACHE_COUNTERS`` counter
    equal those of answering each query on a fresh server, and after
    every operation each server's memoized epoch equals one rebuilt from
    scratch."""
    zones = _cache_zones()
    if kind in ("poisoner", "rpz"):
        served = ()
        upstream_zones = zones
        upstream_server = DNS64Resolver(upstream_zones)
    else:
        served = zones
        upstream_zones = (_upstream_zone(),)
        upstream_server = DnsServer(upstream_zones)
    upstream = upstream_server.handle_query
    with patch.object(DnsServer, "_CACHE_LIMIT", 8):
        server = _make_server(kind, served, upstream)
        fresh_log = []
        fresh_counters = dict.fromkeys(server._CACHE_COUNTERS, 0)
        for operation in operations:
            if operation[0] == "query":
                _, name, rrtype, ident, client = operation
                wire = query_wire(name, rrtype, ident)
                fresh = _make_server(kind, served, upstream)
                answer = server.handle_query(wire, client)
                assert answer == fresh.handle_query(wire, client), operation
                fresh_log += _log(fresh)
                for counter in fresh_counters:
                    fresh_counters[counter] += getattr(fresh, counter)
            else:
                _write(zones, *operation[1:])
            _assert_epoch_is_fresh(server, served)
            _assert_epoch_is_fresh(upstream_server, upstream_zones)
    assert _log(server) == fresh_log
    assert {counter: getattr(server, counter) for counter in fresh_counters} == fresh_counters
