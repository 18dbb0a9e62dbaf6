"""Hypothesis property tests for DNS: names, messages, zones and the
poisoned/RPZ servers' behavioural invariants."""

import string

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.dns.message import DnsMessage, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, RCode, RRType
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address, IPv6Address
from repro.xlat.dns64 import DNS64Resolver

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=12)
names = st.lists(label, min_size=1, max_size=5).map(lambda ls: DnsName(tuple(ls)))
v4_addrs = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
v6_addrs = st.integers(min_value=0, max_value=(1 << 128) - 1).map(IPv6Address)
idents = st.integers(min_value=0, max_value=0xFFFF)


@given(name=names)
def test_name_wire_round_trip(name):
    decoded, offset = DnsName.decode(name.encode(), 0)
    assert decoded == name
    assert offset == len(name.encode())


@given(name=names, suffix=names)
def test_concatenate_is_subdomain(name, suffix):
    combined = name.concatenate(suffix)
    assume(combined.label_count <= 10)
    assert combined.is_subdomain_of(suffix)
    assert str(combined) == f"{name}.{suffix}"


@given(name=names)
def test_parent_chain_terminates_at_root(name):
    node = name
    for _ in range(name.label_count):
        node = node.parent()
    assert node.is_root


@given(
    name=names,
    rrtype=st.sampled_from([RRType.A, RRType.AAAA]),
    ident=idents,
    addrs=st.lists(v4_addrs, min_size=0, max_size=5),
)
def test_message_round_trip_with_answers(name, rrtype, ident, addrs):
    query = DnsMessage.query(name, rrtype, ident=ident)
    answers = tuple(ResourceRecord(name, RRType.A, 60, A(a)) for a in addrs)
    response = query.response(answers=answers)
    decoded = DnsMessage.decode(response.encode())
    assert decoded.header.ident == ident
    assert [rr.rdata.address for rr in decoded.answers] == list(addrs)
    assert decoded.question.name == name


@given(hosts=st.lists(st.tuples(label, v4_addrs), min_size=1, max_size=20, unique_by=lambda t: t[0]))
def test_zone_every_added_record_resolvable(hosts):
    zone = Zone("example.test")
    for host, addr in hosts:
        zone.add_a(f"{host}.example.test", str(addr))
    for host, addr in hosts:
        result = zone.lookup(f"{host}.example.test", RRType.A)
        assert result.rcode == RCode.NOERROR
        assert result.records[0].rdata.address == addr


@given(hosts=st.lists(label, min_size=1, max_size=10, unique=True))
def test_zone_nxdomain_iff_never_added(hosts):
    zone = Zone("example.test")
    added = hosts[: len(hosts) // 2]
    for host in added:
        zone.add_a(f"{host}.example.test", "192.0.2.1")
    for host in hosts:
        result = zone.lookup(f"{host}.example.test", RRType.A)
        if host in added:
            assert result.rcode == RCode.NOERROR
        else:
            assert result.rcode == RCode.NXDOMAIN


# Mutations draw labels from "abc"; probes also use "d", which is never added.
_ORIGIN = DnsName("z.test")


def _zone_names(alphabet):
    return st.lists(st.sampled_from(alphabet), min_size=1, max_size=3).map(
        lambda ls: DnsName(tuple(ls)).concatenate(_ORIGIN)
    )


_ops = st.sampled_from(["add_a", "add_aaaa"])
_mutations = st.lists(st.tuples(_ops, _zone_names("abc")), min_size=1, max_size=25)


def _with_ancestors(name):
    chain = [name]
    while chain[-1] != _ORIGIN:
        chain.append(chain[-1].parent())
    return chain


@given(mutations=_mutations, probes=st.lists(_zone_names("abcd"), min_size=1, max_size=6))
@settings(max_examples=150)
def test_zone_existence_matches_brute_force_oracle(mutations, probes):
    """A name answers NOERROR iff some record's owner is at or below it,
    after every add — checked against a scan of the owners added."""
    zone = Zone(_ORIGIN)
    touched = set()
    owners = {_ORIGIN}
    for op, name in mutations:
        if op == "add_a":
            zone.add_a(name, "192.0.2.1")
        else:
            zone.add_aaaa(name, "2001:db8::1")
        touched.update(_with_ancestors(name))
        owners.add(name)
        for probe in sorted(touched.union(probes), key=str):
            exists = any(owner.is_subdomain_of(probe) for owner in owners)
            expected = RCode.NOERROR if exists else RCode.NXDOMAIN
            assert zone.lookup(probe, RRType.A).rcode == expected, (op, name, probe)


# --------------------------------------------------------------------------
# Behavioural invariants of the intervention servers
# --------------------------------------------------------------------------


def _servers():
    zone = Zone("known.test")
    zone.add_a("web.known.test", "198.51.100.5")
    zone.add_aaaa("dual.known.test", "2001:db8::5")
    zone.add_a("dual.known.test", "198.51.100.6")
    upstream = DNS64Resolver([zone])
    poison = IPv4Address("23.153.8.71")
    return (
        PoisonedDNSServer(InterventionConfig(poison_address=poison), upstream.handle_query),
        RPZPolicyServer(RpzConfig(poison_address=poison), upstream.handle_query),
        poison,
    )


@given(name=names, ident=idents)
@settings(max_examples=50)
def test_poisoned_server_invariant_every_a_is_poison(name, ident):
    """INVARIANT: the dnsmasq-style server answers EVERY A query with
    exactly one record: the poison address, rcode NOERROR."""
    poisoned, _rpz, poison = _servers()
    raw = poisoned.handle_query(DnsMessage.query(name, RRType.A, ident=ident).encode())
    response = DnsMessage.decode(raw)
    assert response.rcode == RCode.NOERROR
    records = response.answers_of_type(RRType.A)
    assert len(records) == 1 and records[0].rdata.address == poison


@given(name=names, ident=idents)
@settings(max_examples=50)
def test_poisoned_server_invariant_aaaa_never_poisoned(name, ident):
    """INVARIANT: AAAA answers are upstream's verbatim (possibly empty /
    negative) — the poison address never appears in an AAAA."""
    poisoned, _rpz, poison = _servers()
    raw = poisoned.handle_query(DnsMessage.query(name, RRType.AAAA, ident=ident).encode())
    response = DnsMessage.decode(raw)
    for rr in response.answers_of_type(RRType.AAAA):
        assert rr.rdata.address != IPv6Address(f"::ffff:{poison}")


@given(name=names, ident=idents)
@settings(max_examples=50)
def test_rpz_never_invents_names(name, ident):
    """INVARIANT: the RPZ server answers an A query positively ONLY when
    the upstream had a positive A answer for that exact name."""
    _poisoned, rpz, poison = _servers()
    raw = rpz.handle_query(DnsMessage.query(name, RRType.A, ident=ident).encode())
    response = DnsMessage.decode(raw)
    upstream_has_it = str(name) in ("web.known.test", "dual.known.test")
    if upstream_has_it:
        assert response.answers_of_type(RRType.A)[0].rdata.address == poison
    else:
        assert not response.answers_of_type(RRType.A)


@given(name=names, ident=idents, rrtype=st.sampled_from([RRType.A, RRType.AAAA]))
@settings(max_examples=50)
def test_servers_echo_transaction_id(name, ident, rrtype):
    poisoned, rpz, _poison = _servers()
    for server in (poisoned, rpz):
        raw = server.handle_query(DnsMessage.query(name, rrtype, ident=ident).encode())
        assert DnsMessage.decode(raw).header.ident == ident


# --------------------------------------------------------------------------
# Every answer re-encodes to its own bytes
# --------------------------------------------------------------------------

#: Owners every generated zone holds, so that every example draws each
#: kind of answer the property must cover.
_FIXED = ("v4", "v6", "empty", "deep")
_hosts = st.lists(
    st.tuples(
        label.filter(lambda host: host not in _FIXED),
        st.sampled_from(["a", "aaaa", "both"]),
        v4_addrs,
        v6_addrs,
    ),
    max_size=8,
    unique_by=lambda host: host[0],
)
_ANSWER_KINDS = {
    "poison A",
    "RPZ rewrite",
    "synthesized AAAA",
    "native AAAA",
    "NODATA with SOA",
    "NXDOMAIN with SOA",
}


@given(hosts=_hosts, probe=label, ident=idents)
@settings(max_examples=60, deadline=None)
def test_every_answer_re_encodes_to_its_own_bytes(hosts, probe, ident):
    """INVARIANT: ``DnsMessage.decode(wire).encode() == wire`` for every
    answer of the poisoner, the DNS64 and the RPZ server, first asked
    and replayed.  The forwarders decode the DNS64's reply and encode
    the answer they build from it, so byte-identical output rests on
    this."""
    zone = Zone("z.test")
    zone.add_a("v4.z.test", "198.51.100.5")
    zone.add_aaaa("v6.z.test", "2001:db8::5")
    zone.add_a("deep.empty.z.test", "198.51.100.6")
    for host, kind, v4, v6 in hosts:
        owner = f"{host}.z.test"
        if kind in ("a", "both"):
            zone.add_a(owner, str(v4))
        if kind in ("aaaa", "both"):
            zone.add_aaaa(owner, str(v6))
    poison = IPv4Address("23.153.8.71")
    dns64 = DNS64Resolver([zone])
    poisoned = PoisonedDNSServer(InterventionConfig(poison_address=poison), dns64.handle_query)
    rpz = RPZPolicyServer(RpzConfig(poison_address=poison), dns64.handle_query)
    names = [f"{host}.z.test" for host, *_ in hosts]
    names += ["v4.z.test", "v6.z.test", "empty.z.test", f"{probe}.nx.z.test"]
    seen = set()
    for round_ident in (ident, ident ^ 0x5A5A):
        for name in names:
            for rrtype in (RRType.A, RRType.AAAA):
                for server in (poisoned, rpz, dns64):
                    before = (rpz.rewritten, dns64.synthesized, dns64.passed_through)
                    query = DnsMessage.query(name, rrtype, ident=round_ident)
                    wire = server.handle_query(query.encode())
                    response = DnsMessage.decode(wire)
                    assert response.encode() == wire, (server.name, name, rrtype)
                    answers = response.answers_of_type(rrtype)
                    negative = [rr.rrtype for rr in response.authorities] == [RRType.SOA]
                    if negative and response.rcode == RCode.NXDOMAIN:
                        seen.add("NXDOMAIN with SOA")
                    elif negative and response.rcode == RCode.NOERROR and not answers:
                        seen.add("NODATA with SOA")
                    elif rrtype == RRType.A and server is poisoned:
                        assert [rr.rdata.address for rr in answers] == [poison]
                        seen.add("poison A")
                    elif rrtype == RRType.A and rpz.rewritten > before[0]:
                        assert [rr.rdata.address for rr in answers] == [poison]
                        seen.add("RPZ rewrite")
                    elif rrtype == RRType.AAAA and dns64.synthesized > before[1]:
                        seen.add("synthesized AAAA")
                    elif rrtype == RRType.AAAA and dns64.passed_through > before[2]:
                        seen.add("native AAAA")
    assert seen == _ANSWER_KINDS
