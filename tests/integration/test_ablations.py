"""Ablations over the design choices DESIGN.md calls out: each knob of
the testbed is switched off and the observable consequence measured —
the evidence for why the paper's §IV.A criteria needed every piece.
"""

from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10
from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.scoring import score_stock
from repro.core.testbed import (
    build_testbed,
    PI_HEALTHY_V6,
    PI_POOL_FIRST,
    PI_POOL_LAST,
    TestbedConfig,
)
from repro.dns.message import DnsMessage
from repro.dns.rdata import RRType
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address
from repro.services.testipv6 import run_test_ipv6
from repro.xlat.dns64 import DNS64Resolver


def run_snooping_ablation():
    """Without DHCP snooping the gateway's option-108-ignorant pool
    races the Pi — RFC 8925 clients can lose their v6-only grant."""
    rows = []
    for snooping in (True, False):
        testbed = build_testbed(TestbedConfig(dhcp_snooping=snooping))
        mac = testbed.add_client(MACOS, "mac")
        rows.append(
            (
                snooping,
                mac.host.v6only_wait is not None,
                mac.host.ipv4_config.address if mac.host.ipv4_config else None,
            )
        )
    return rows


def test_ablation_dhcp_snooping():
    """A1: with snooping the Mac gets its v6-only grant and no lease;
    without it the gateway answers first, the grant is lost and the
    Mac binds an address from the gateway's pool, not the Pi's."""
    on, off = run_snooping_ablation()
    assert on == (True, True, None)
    assert off == (False, False, IPv4Address("192.168.12.100"))
    assert not int(PI_POOL_FIRST) <= int(off[2]) <= int(PI_POOL_LAST)


def run_switch_ra_ablation():
    """Without the switch's low-priority RA, the advertised RDNSS stays
    dead and RDNSS-preferring clients fall back to the DHCP resolver."""
    rows = []
    for switch_ra in (True, False):
        testbed = build_testbed(TestbedConfig(switch_ra=switch_ra))
        client = testbed.add_client(WINDOWS_10, "w10")
        query = DnsMessage.query("ip6.me", RRType.AAAA, ident=1).encode()
        rdnss_alive = (
            client.host.udp_exchange(PI_HEALTHY_V6, 53, query, timeout=0.6) is not None
        )
        client.resolver.flush_cache()
        outcome = client.fetch("sc24.supercomputing.org")
        rows.append((switch_ra, rdnss_alive, outcome.landed_on, testbed.poisoner.poison_answers))
    return rows


def test_ablation_switch_ra():
    """A2: with the switch RA the RDNSS is alive and W10 never touches
    the poison; without it the ULA resolver is dead and W10 falls back
    to the poisoned DHCP resolver — and (being dual-stack) still reaches
    the site via the forwarded AAAA, but takes one poisoned answer."""
    on, off = run_switch_ra_ablation()
    assert on == (True, True, "sc24.supercomputing.org", 0)
    assert off == (False, False, "sc24.supercomputing.org", 1)


def run_option108_ablation():
    """Without option 108 even modern devices stay dual-stack — the
    pool drains and the v6-only count collapses."""
    rows = []
    for option_108 in (True, False):
        testbed = build_testbed(TestbedConfig(option_108=option_108))
        for i in range(6):
            testbed.add_client(MACOS, f"phone-{i}")
        census = testbed.census()
        now = testbed.engine.now
        pool_used = sum(
            1
            for lease in testbed.dhcp_server.leases.values()
            if lease.expires_at > now
        )
        rows.append((option_108, census.accurate_ipv6_only_count(), pool_used))
    return rows


def test_ablation_option_108():
    """A3: option 108 makes 6/6 phones accurately IPv6-only and spares
    the pool (§II); without it none are, and each takes an address."""
    assert run_option108_ablation() == [(True, 6, 0), (False, 0, 6)]


def run_poison_target_ablation():
    """Figure 5's lesson: where the poison points decides whether the
    intervention informs or misleads."""
    rows = []
    for target in ("ip6.me", "test-ipv6.com"):
        testbed = build_testbed(TestbedConfig(poison_target=target))
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        score = score_stock(run_test_ipv6(client, testbed.mirror))
        landed = client.fetch("sc24.supercomputing.org").landed_on
        rows.append((target, landed, score.score))
    return rows


def test_ablation_poison_target():
    """A4: poison pointed at ip6.me fails honestly (0/10) and explains;
    pointed at the mirror it scores a misleading 10/10."""
    assert run_poison_target_ablation() == [
        ("ip6.me", "ip6.me", 0),
        ("test-ipv6.com", "test-ipv6.com", 10),
    ]


def run_rpz_upstream_calls(queries: int = 100):
    """dnsmasq-style vs RPZ: the poisoner answers an A query itself,
    while the RPZ consults the upstream for every one, so each of its
    A answers costs a full upstream round trip."""
    zone = Zone("supercomputing.org")
    zone.add_a("sc24.supercomputing.org", "190.92.158.4")
    upstream = DNS64Resolver([zone])
    upstream_calls = {"dnsmasq": 0, "rpz": 0}

    def counted(server):
        def forward(wire):
            upstream_calls[server] += 1
            return upstream.handle_query(wire)

        return forward

    poison = IPv4Address("23.153.8.71")
    dnsmasq = PoisonedDNSServer(InterventionConfig(poison_address=poison), counted("dnsmasq"))
    rpz = RPZPolicyServer(RpzConfig(poison_address=poison), counted("rpz"))
    wire = DnsMessage.query("sc24.supercomputing.org", RRType.A, ident=1).encode()
    for _ in range(queries):
        dnsmasq.handle_query(wire)
        rpz.handle_query(wire)
    return upstream_calls, dnsmasq.poison_answers, rpz.rewritten


def test_ablation_rpz_upstream_cost():
    """A5: over 100 A queries for an existing name, the dnsmasq-style
    server never asks the upstream and the RPZ asks it every time."""
    upstream_calls, poison_answers, rewritten = run_rpz_upstream_calls(100)
    assert upstream_calls == {"dnsmasq": 0, "rpz": 100}
    assert (poison_answers, rewritten) == (100, 100)
