"""The wire-template response cache must be observably transparent:
identical answers, identical query logs and counters, invalidated the
moment the zone data an answer reads or the intervention policy
changes, and bounded by evicting the least recently used answer."""

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
from repro.dns.rdata import TXT, RRType
from repro.dns.server import DnsServer, ForwardingDnsServer
from repro.dns.zone import Zone, ZoneError
from repro.net.addresses import IPv4Address, IPv6Network
from repro.xlat.dns64 import Dns64Config, DNS64Resolver


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

    def test_policy_epoch_bump_invalidates(self):
        server = DnsServer([make_zone()])
        wire = query_wire("web.example.test", RRType.A)
        server.handle_query(wire)
        server.bump_policy_epoch()
        server.handle_query(wire)
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
        zone = make_zone()
        server = DnsServer([zone])
        with pytest.raises(AttributeError):
            server.policy_epoch = 7
        with pytest.raises(AttributeError):
            zone.version = 7
        server.bump_policy_epoch()
        zone.add_a("new.example.test", "192.0.2.77")
        assert (server.policy_epoch, zone.version) == (1, 4)

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
# Queries interleaved with zone writes, policy bumps, config swaps and
# add_zone, against a cache of 8 records so that eviction runs too.  The
# names cover an existing name, a nonexistent one, an empty non-terminal
# (sub), a CNAME (alias) and a name outside every zone until its zone is
# added; the written names add descendants (x.*), the apex and an
# unrelated name.  The poisoner and the RPZ server forward to a DNS64
# serving every zone the writes reach, so their upstream's answers move
# with the writes as the testbed's do.

_ORIGIN = "example.test"
_QUERIED_NAMES = (
    _ORIGIN,
    *(f"{label}.{_ORIGIN}" for label in ("web", "v4", "sub", "deep.sub", "alias", "nx")),
    "elsewhere.test",
    "www.elsewhere.test",
)
_WRITTEN_NAMES = (
    *_QUERIED_NAMES,
    *(f"x.{name}" for name in _QUERIED_NAMES if name != _ORIGIN),
    f"other.{_ORIGIN}",
)
_TARGETS = (f"web.{_ORIGIN}", f"v4.{_ORIGIN}", f"nx.{_ORIGIN}", "www.elsewhere.test")
#: The three configs a swap chooses from, for each kind that has a config.
_CONFIGS = {
    "dns64": (
        Dns64Config(),
        Dns64Config(always_synthesize=True),
        Dns64Config(prefix=IPv6Network("2001:db8:64::/96")),
    ),
    "poisoner": (
        InterventionConfig(poison_address=IPv4Address("23.153.8.71")),
        InterventionConfig(poison_address=IPv4Address("23.153.8.71"), poison_ttl=30),
        InterventionConfig(poison_address=IPv4Address("192.0.2.71"), poison_ttl=30),
    ),
    "rpz": (
        RpzConfig(poison_address=IPv4Address("23.153.8.71")),
        RpzConfig(poison_address=IPv4Address("192.0.2.71")),
        RpzConfig(poison_address=IPv4Address("192.0.2.71"), poison_ttl=30),
    ),
}


def _cache_zones():
    """The served zone, then the zones ``add_zone`` may add."""
    main = Zone(_ORIGIN)
    main.add_a(f"web.{_ORIGIN}", "192.0.2.10")
    main.add_aaaa(f"web.{_ORIGIN}", "2001:db8::10")
    main.add_a(f"v4.{_ORIGIN}", "192.0.2.20")
    main.add_a(f"deep.sub.{_ORIGIN}", "192.0.2.30")
    main.add_cname(f"alias.{_ORIGIN}", f"v4.{_ORIGIN}")
    sub = Zone(f"sub.{_ORIGIN}")
    sub.add_a(f"deep.sub.{_ORIGIN}", "198.51.100.30")
    elsewhere = Zone("elsewhere.test")
    elsewhere.add_a("www.elsewhere.test", "198.51.100.40")
    return main, (sub, elsewhere)


def _upstream_zone():
    zone = Zone("elsewhere.test")
    zone.add_a("www.elsewhere.test", "203.0.113.40")
    zone.add_aaaa("www.elsewhere.test", "2001:db8::40")
    return zone


def _make_server(kind, zones, config, upstream):
    if kind == "zone":
        return DnsServer(zones)
    if kind == "dns64":
        return DNS64Resolver(zones, config)
    if kind == "forwarder":
        return ForwardingDnsServer(upstream, zones)
    # Neither answers from its zones, but their versions are in its epoch.
    server = (PoisonedDNSServer if kind == "poisoner" else RPZPolicyServer)(config, upstream)
    for zone in zones:
        server.add_zone(zone)
    return server


def _assert_epoch_is_fresh(server, zones):
    """The memoized epoch equals one rebuilt from its inputs."""
    rebuilt = ((server.policy_epoch, server.config), tuple(zone.version for zone in zones))
    assert server._cache_epoch() == rebuilt


def _write(zones, how, name, target, outer):
    """Apply one write to the most specific zone covering ``name`` (the
    served zone when ``outer``); writes the zone refuses are skipped."""
    main, (sub, elsewhere) = zones
    zone = next(z for z in (elsewhere, main if outer else sub, main) if z.covers(name))
    try:
        if how == "add_a":
            zone.add_a(name, "192.0.2.99")
        elif how == "add_aaaa":
            zone.add_aaaa(name, "2001:db8::99")
        elif how == "add_txt":
            zone.add(name, RRType.TXT, TXT.from_text("written"))
        elif how == "add_cname":
            zone.add_cname(name, target)
        elif how == "remove_cname":
            zone.remove(name, RRType.CNAME)
        else:
            zone.remove(name)
    except ZoneError:
        pass


_query_op = st.tuples(
    st.just("query"),
    st.sampled_from(_QUERIED_NAMES),
    st.sampled_from((RRType.A, RRType.AAAA, RRType.TXT)),
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from((None, "alice", "bob")),
)
_write_op = st.tuples(
    st.just("write"),
    st.sampled_from(("add_a", "add_aaaa", "add_txt", "add_cname", "remove_cname", "remove")),
    st.sampled_from(_WRITTEN_NAMES),
    st.sampled_from(_TARGETS),
    st.booleans(),
)
_cache_operations = st.lists(
    st.one_of(
        _query_op,
        _query_op,
        _query_op,
        _write_op,
        _write_op,
        st.just(("bump",)),
        st.tuples(st.just("config"), st.integers(min_value=0, max_value=2)),
        st.tuples(st.just("add_zone"), st.integers(min_value=0, max_value=1)),
    ),
    max_size=60,
)


def _log(server):
    return [(e.name, e.rrtype, e.rcode, e.answered_from, e.client) for e in server.query_log]


@pytest.mark.parametrize("kind", ("zone", "dns64", "forwarder", "poisoner", "rpz"))
@given(operations=_cache_operations)
@example(
    # A write elsewhere keeps the hit; a write at the name, below it or
    # at its CNAME target does not.
    operations=[
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 1, None),
        ("query", f"alias.{_ORIGIN}", RRType.AAAA, 2, "alice"),
        ("query", f"sub.{_ORIGIN}", RRType.A, 3, None),
        ("query", f"nx.{_ORIGIN}", RRType.A, 4, None),
        ("write", "add_a", f"other.{_ORIGIN}", f"web.{_ORIGIN}", False),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 5, "bob"),
        ("write", "add_aaaa", f"v4.{_ORIGIN}", f"web.{_ORIGIN}", False),
        ("query", f"alias.{_ORIGIN}", RRType.AAAA, 6, None),
        ("write", "add_a", f"x.nx.{_ORIGIN}", f"web.{_ORIGIN}", False),
        ("query", f"nx.{_ORIGIN}", RRType.A, 7, None),
        ("write", "remove", f"deep.sub.{_ORIGIN}", f"web.{_ORIGIN}", True),
        ("query", f"sub.{_ORIGIN}", RRType.A, 8, None),
    ]
)
@example(
    # An A record beside a CNAME: the AAAA answer is synthesized from
    # the A record, so it holds no CNAME, yet the native lookup followed
    # the CNAME, whose target then gains an AAAA record.
    operations=[
        ("write", "add_a", f"alias.{_ORIGIN}", f"web.{_ORIGIN}", False),
        ("query", f"alias.{_ORIGIN}", RRType.AAAA, 1, None),
        ("write", "add_aaaa", f"v4.{_ORIGIN}", f"web.{_ORIGIN}", False),
        ("query", f"alias.{_ORIGIN}", RRType.AAAA, 2, None),
    ]
)
@example(
    # add_zone, a config swap and a bump each invalidate everything.
    operations=[
        ("query", "www.elsewhere.test", RRType.A, 1, None),
        ("query", f"deep.sub.{_ORIGIN}", RRType.A, 2, None),
        ("add_zone", 1),
        ("query", "www.elsewhere.test", RRType.A, 3, None),
        ("add_zone", 0),
        ("query", f"deep.sub.{_ORIGIN}", RRType.A, 4, None),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 5, None),
        ("config", 2),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 6, None),
        ("bump",),
        ("query", f"v4.{_ORIGIN}", RRType.AAAA, 7, None),
    ]
)
@example(
    # A swap to the config in place rebuilds an equal epoch, which the
    # records then match by equality and are re-stamped with.
    operations=[
        ("query", f"v4.{_ORIGIN}", RRType.A, 1, None),
        ("query", "www.elsewhere.test", RRType.AAAA, 2, None),
        ("config", 0),
        ("query", f"v4.{_ORIGIN}", RRType.A, 3, "alice"),
        ("query", "www.elsewhere.test", RRType.AAAA, 4, None),
        ("write", "remove", "www.elsewhere.test", f"web.{_ORIGIN}", False),
        ("query", "www.elsewhere.test", RRType.AAAA, 5, None),
        ("query", f"v4.{_ORIGIN}", RRType.A, 6, None),
    ]
)
@settings(max_examples=150, deadline=None)
def test_cache_is_transparent_under_writes(kind, operations):
    """Every answer, the query log and every ``_CACHE_COUNTERS`` counter
    equal those of answering each query on a fresh server, and after
    every operation each server's memoized epoch equals one rebuilt from
    scratch."""
    main, addable = zones = _cache_zones()
    if kind in ("poisoner", "rpz"):
        upstream_zones = [main, *addable]
        upstream_server = DNS64Resolver(upstream_zones)
    else:
        upstream_zones = [_upstream_zone()]
        upstream_server = DnsServer(upstream_zones)
    upstream = upstream_server.handle_query
    served = [main]
    configs = _CONFIGS.get(kind, (None,))
    config = configs[0]
    with patch.object(DnsServer, "_CACHE_LIMIT", 8):
        server = _make_server(kind, served, config, upstream)
        fresh_log = []
        fresh_counters = dict.fromkeys(server._CACHE_COUNTERS, 0)
        for operation in operations:
            if operation[0] == "query":
                _, name, rrtype, ident, client = operation
                wire = query_wire(name, rrtype, ident)
                fresh = _make_server(kind, served, config, upstream)
                answer = server.handle_query(wire, client)
                assert answer == fresh.handle_query(wire, client), operation
                fresh_log += _log(fresh)
                for counter in fresh_counters:
                    fresh_counters[counter] += getattr(fresh, counter)
            elif operation[0] == "write":
                _write(zones, *operation[1:])
            elif operation[0] == "bump":
                server.bump_policy_epoch()
            elif operation[0] == "config":
                if kind in _CONFIGS:
                    config = configs[operation[1]]
                    server.config = config
            else:
                served.append(addable[operation[1]])
                server.add_zone(addable[operation[1]])
            _assert_epoch_is_fresh(server, served)
            _assert_epoch_is_fresh(upstream_server, upstream_zones)
    assert _log(server) == fresh_log
    assert {counter: getattr(server, counter) for counter in fresh_counters} == fresh_counters
