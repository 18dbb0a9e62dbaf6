"""The poisoned DNS server (dnsmasq-style) and its RPZ replacement,
tested standalone against an in-process healthy DNS64 upstream."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.dns.message import DnsMessage, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, RCode, RRType
from repro.dns.server import ForwardingDnsServer
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address, IPv6Address
from repro.xlat.dns64 import DNS64Resolver

POISON = IPv4Address("23.153.8.71")


def make_upstream():
    zone = Zone("supercomputing.org")
    zone.add_a("sc24.supercomputing.org", "190.92.158.4")
    zone2 = Zone("ip6.me")
    zone2.add_a("ip6.me", str(POISON))
    zone2.add_aaaa("ip6.me", "2001:4810:0:3::71")
    return DNS64Resolver([zone, zone2])


def ask(server, name, rrtype):
    raw = server.handle_query(DnsMessage.query(name, rrtype, ident=42).encode())
    return DnsMessage.decode(raw)


@pytest.fixture
def poisoned():
    upstream = make_upstream()
    return PoisonedDNSServer(
        InterventionConfig(poison_address=POISON), upstream.handle_query
    ), upstream


@pytest.fixture
def rpz():
    upstream = make_upstream()
    return RPZPolicyServer(
        RpzConfig(poison_address=POISON), upstream.handle_query
    ), upstream


class TestPoisonedServer:
    def test_every_a_query_poisoned(self, poisoned):
        server, _ = poisoned
        response = ask(server, "sc24.supercomputing.org", RRType.A)
        assert response.answers_of_type(RRType.A)[0].rdata.address == POISON
        assert server.poison_answers == 1

    def test_nonexistent_name_also_poisoned_figure9(self, poisoned):
        """The dnsmasq flaw: A answers even for names that don't exist."""
        server, _ = poisoned
        response = ask(server, "vpn.anl.gov.rfc8925.com", RRType.A)
        assert response.rcode == RCode.NOERROR
        assert response.answers_of_type(RRType.A)[0].rdata.address == POISON

    def test_aaaa_forwarded_to_healthy_dns64(self, poisoned):
        server, upstream = poisoned
        response = ask(server, "sc24.supercomputing.org", RRType.AAAA)
        aaaa = response.answers_of_type(RRType.AAAA)
        assert aaaa[0].rdata.address == IPv6Address("64:ff9b::be5c:9e04")
        assert server.forwarded == 1
        assert upstream.synthesized == 1

    def test_aaaa_nxdomain_preserved(self, poisoned):
        server, _ = poisoned
        response = ask(server, "nothere.ip6.me", RRType.AAAA)
        assert response.rcode == RCode.NXDOMAIN

    def test_dead_upstream_servfail_for_aaaa(self):
        server = PoisonedDNSServer(
            InterventionConfig(poison_address=POISON), lambda wire: None
        )
        response = ask(server, "x.example", RRType.AAAA)
        assert response.rcode == RCode.SERVFAIL
        # ...but A queries still get poisoned (dnsmasq's address= line
        # does not need the upstream at all).
        response = ask(server, "x.example", RRType.A)
        assert response.rcode == RCode.NOERROR

    def test_poison_ttl(self, poisoned):
        server, _ = poisoned
        response = ask(server, "anything.example", RRType.A)
        assert response.answers[0].ttl == server.config.poison_ttl

    def test_query_log_records_poison_source(self, poisoned):
        server, _ = poisoned
        ask(server, "a.example", RRType.A)
        assert server.query_log[-1].answered_from == "poison"


class TestRpzServer:
    def test_existing_a_rewritten(self, rpz):
        server, _ = rpz
        response = ask(server, "sc24.supercomputing.org", RRType.A)
        assert response.answers_of_type(RRType.A)[0].rdata.address == POISON
        assert server.rewritten == 1

    def test_nonexistent_name_stays_nxdomain(self, rpz):
        """The fix for figure 9."""
        server, _ = rpz
        response = ask(server, "vpn.anl.gov.rfc8925.com", RRType.A)
        assert response.rcode == RCode.REFUSED or response.rcode == RCode.NXDOMAIN
        assert not response.answers
        assert server.rewritten == 0

    def test_aaaa_untouched(self, rpz):
        server, _ = rpz
        response = ask(server, "ip6.me", RRType.AAAA)
        assert response.answers_of_type(RRType.AAAA)[0].rdata.address == IPv6Address(
            "2001:4810:0:3::71"
        )

    def test_dead_upstream(self):
        server = RPZPolicyServer(RpzConfig(poison_address=POISON), lambda wire: None)
        response = ask(server, "x.example", RRType.A)
        assert response.rcode == RCode.SERVFAIL


# --------------------------------------------------------------------------
# Forwarded answers: recorded with the upstream's reply, replayed only
# while the upstream repeats that reply byte for byte
# --------------------------------------------------------------------------

#: The counters each server kind keeps; every one must match a fresh server's.
COUNTERS = ("forwarded", "poison_answers", "rewritten", "passed_negative")


def make_poisoner(upstream):
    return PoisonedDNSServer(InterventionConfig(poison_address=POISON), upstream)


def make_rpz(upstream):
    return RPZPolicyServer(RpzConfig(poison_address=POISON), upstream)


def local_zone():
    zone = Zone("local.test")
    zone.add_a("web.local.test", "198.51.100.7")
    return zone


def make_forwarder(upstream):
    return ForwardingDnsServer(upstream, [local_zone()])


#: (server factory, a query type each kind forwards).
KINDS = {
    "poisoner": (make_poisoner, RRType.AAAA),
    "rpz": (make_rpz, RRType.A),
    "forwarder": (make_forwarder, RRType.A),
}


def wire_for(name, rrtype, ident):
    return DnsMessage.query(name, rrtype, ident=ident).encode()


def stub_reply(wire, address=None, rcode=RCode.NOERROR):
    """An upstream reply to ``wire``: one record of the asked type at
    ``address`` (an int), or none."""
    query = DnsMessage.decode(wire)
    answers = ()
    if address is not None:
        if query.question.rrtype == RRType.AAAA:
            rdata = AAAA(IPv6Address(0x20010DB8 << 96 | address))
        else:
            rdata = A(IPv4Address(0xC6336400 | address))
        answers = (ResourceRecord(query.question.name, query.question.rrtype, 60, rdata),)
    return query.response(answers=answers, rcode=rcode).encode()


def observed(server):
    """What a server shows besides its answers: its query log and counters."""
    log = [(e.name, e.rrtype, e.rcode, e.answered_from, e.client) for e in server.query_log]
    return log, {name: getattr(server, name) for name in COUNTERS if hasattr(server, name)}


class FreshServers:
    """Answers every query on a new server, as if nothing were cached,
    and adds up what those servers observed."""

    def __init__(self, make):
        self.make = make
        self.log = []
        self.counters = {}

    def ask(self, upstream, wire, client=None):
        server = self.make(upstream)
        response = server.handle_query(wire, client)
        log, counters = observed(server)
        self.log += log
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return response

    def assert_matches(self, server):
        log, counters = observed(server)
        assert log == self.log
        assert counters == {name: self.counters.get(name, 0) for name in counters}


class TestForwardedReplay:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_one_upstream_call_per_query_with_parent_bytes(self, kind):
        make, rrtype = KINDS[kind]
        calls = []

        def reply_to(wire, number):
            # The same reply three times running, then another: an
            # answer, NXDOMAIN, a different answer.
            block = number // 3
            if block % 2:
                return stub_reply(wire, rcode=RCode.NXDOMAIN)
            return stub_reply(wire, address=1 + block)

        def upstream(wire):
            calls.append(wire)
            return reply_to(wire, len(calls) - 1)

        server = make(upstream)
        fresh = FreshServers(make)
        for ident in range(9):
            wire = wire_for("x.example", rrtype, ident)
            response = server.handle_query(wire)
            assert len(calls) == ident + 1
            sent = calls[-1]
            assert sent == DnsMessage.decode(wire).encode()
            assert response == fresh.ask(lambda _wire: reply_to(sent, ident), wire)
        fresh.assert_matches(server)
        assert server.forwarded == 9

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_changed_reply_is_never_replayed(self, kind):
        make, rrtype = KINDS[kind]
        replies = iter([
            lambda wire: stub_reply(wire, address=5),
            lambda wire: stub_reply(wire, rcode=RCode.NXDOMAIN),
            lambda wire: stub_reply(wire, rcode=RCode.NXDOMAIN),
            lambda wire: stub_reply(wire, address=6),
            lambda wire: stub_reply(wire, address=6),
            lambda wire: stub_reply(wire, address=5),
        ])
        got = []
        server = make(lambda wire: got.append(next(replies)(wire)) or got[-1])
        fresh = FreshServers(make)
        for ident in range(6):
            wire = wire_for("x.example", rrtype, 100 + ident)
            response = server.handle_query(wire, client=f"client-{ident % 2}")
            reply = got[-1]
            assert response == fresh.ask(lambda _wire: reply, wire, f"client-{ident % 2}")
        fresh.assert_matches(server)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_no_reply_or_undecodable_reply_is_servfail_and_not_recorded(self, kind):
        make, rrtype = KINDS[kind]
        for raw in (None, b"\x12\x34\x81"):
            server = make(lambda wire, raw=raw: raw)
            for ident in range(2):
                response = DnsMessage.decode(server.handle_query(wire_for("x.example", rrtype, ident)))
                assert response.rcode == RCode.SERVFAIL
            assert server.forwarded == 2
            assert not server._response_cache

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_upstream_calling_back_into_the_server(self, kind):
        """The testbed's upstream pumps the engine, so another query can
        reach the same server mid-exchange.  Both queries' answers, log
        entries and counters must be those of uncached servers, round
        after round, while the outer query's reply changes every other
        round."""
        make, rrtype = KINDS[kind]
        outer_name, inner_name = DnsName("outer.example"), DnsName("inner.example")
        state = {"round": 0}

        def reply_for(wire):
            query = DnsMessage.decode(wire)
            if query.question.name == inner_name:
                return stub_reply(wire, address=9)
            if state["round"] // 2 == 1:
                return stub_reply(wire, rcode=RCode.NXDOMAIN)
            return stub_reply(wire, address=1 + state["round"] // 2)

        def upstream(wire):
            if DnsMessage.decode(wire).question.name == outer_name:
                inner = wire_for(inner_name, rrtype, state["round"])
                responses.append(("inner", server.handle_query(inner, client="inner")))
                expected.append(("inner", fresh.ask(reply_for, inner, "inner")))
            return reply_for(wire)

        server = make(upstream)
        fresh = FreshServers(make)
        responses, expected = [], []
        for number in range(6):
            state["round"] = number
            outer = wire_for(outer_name, rrtype, 1000 + number)
            responses.append(("outer", server.handle_query(outer, client="outer")))
            expected.append(("outer", fresh.ask(reply_for, outer, "outer")))
        assert responses == expected
        # Uncached, each round logs the inner query first, then the outer.
        assert [entry.client for entry in server.query_log] == ["inner", "outer"] * 6
        fresh.assert_matches(server)


_WRITTEN = ("web.known.test", "new.known.test", "web.local.test")
_NAMES = _WRITTEN + ("nx.known.test", "elsewhere.example")
_query = st.tuples(
    st.just("query"),
    st.sampled_from(_NAMES),
    st.sampled_from((RRType.A, RRType.AAAA, RRType.TXT)),
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from((None, "alice", "bob")),
)
_write = st.tuples(
    st.just("write"),
    st.sampled_from(("add_a", "add_aaaa")),
    st.sampled_from(_WRITTEN),
)
# Queries outnumber writes, so the same question often comes back
# after a write.
_operations = st.lists(st.one_of(_query, _query, _query, _write, _write), max_size=50)


def _dns64_observed(resolver):
    return (
        [(e.name, e.rrtype, e.rcode, e.answered_from, e.client) for e in resolver.query_log],
        resolver.synthesized,
        resolver.passed_through,
        resolver.cache_hits,
        resolver.cache_misses,
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
@given(operations=_operations)
@example(
    # Every kind forwards both questions; both replies change in between.
    operations=[
        ("query", "web.known.test", RRType.AAAA, 1, "alice"),
        ("query", "new.known.test", RRType.A, 2, "bob"),
        ("write", "add_aaaa", "web.known.test"),
        ("write", "add_a", "new.known.test"),
        ("query", "web.known.test", RRType.AAAA, 3, "alice"),
        ("query", "new.known.test", RRType.A, 4, None),
    ]
)
@example(
    # Writes to the forwarder's own zone between repeats of one question.
    operations=[
        ("query", "web.local.test", RRType.A, 1, None),
        ("write", "add_a", "web.local.test"),
        ("query", "web.local.test", RRType.A, 2, None),
        ("query", "web.known.test", RRType.A, 3, None),
        ("write", "add_a", "web.local.test"),
        ("query", "web.known.test", RRType.A, 4, None),
    ]
)
@settings(max_examples=200, deadline=None)
def test_replay_equals_a_fresh_server_per_query(kind, operations):
    """Queries interleaved with zone writes: every answer, the query
    log and every counter equal those of answering each query on a
    fresh server, and the upstream sees the same queries in the same
    order."""
    known = Zone("known.test")
    known.add_a("web.known.test", "198.51.100.5")
    local = local_zone()
    upstreams = []
    for _ in range(2):
        resolver = DNS64Resolver([known])
        calls = []
        upstreams.append((resolver, calls, lambda wire, r=resolver, c=calls: c.append(wire) or r.handle_query(wire)))

    def make(upstream):
        if kind == "forwarder":
            return ForwardingDnsServer(upstream, [local])
        return KINDS[kind][0](upstream)

    server = make(upstreams[0][2])
    fresh = FreshServers(make)
    for operation in operations:
        if operation[0] == "query":
            _, name, rrtype, ident, client = operation
            wire = wire_for(name, rrtype, ident)
            assert server.handle_query(wire, client) == fresh.ask(
                upstreams[1][2], wire, client
            ), operation
        else:
            _, write, name = operation
            zone = local if name.endswith(".local.test") else known
            getattr(zone, write)(name, "198.51.100.9" if write == "add_a" else "2001:db8::9")
    fresh.assert_matches(server)
    assert upstreams[0][1] == upstreams[1][1]
    assert _dns64_observed(upstreams[0][0]) == _dns64_observed(upstreams[1][0])
