"""Ablations over the design choices DESIGN.md calls out: each knob of
the testbed is switched off and the observable consequence measured —
the evidence for why the paper's §IV.A criteria needed every piece.
"""

from repro.clients.profiles import LINUX, MACOS, NINTENDO_SWITCH, WINDOWS_10
from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.testbed import build_testbed, PI_HEALTHY_V6, TestbedConfig
from repro.dns.message import DnsMessage
from repro.dns.rdata import RRType
from repro.dns.zone import Zone
from repro.net.addresses import IPv4Address
from repro.xlat.dns64 import DNS64Resolver

from benchmarks.conftest import report


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


def test_ablation_dhcp_snooping(benchmark):
    rows = benchmark(run_snooping_ablation)
    report(
        "Ablation A1 — DHCP snooping",
        [
            f"snooping={'on ' if snoop else 'off'}: RFC8925 grant={granted}  "
            f"v4 lease={lease or '-'}"
            for snoop, granted, lease in rows
        ],
    )
    with_snoop = dict((r[0], r) for r in rows)[True]
    without = dict((r[0], r) for r in rows)[False]
    assert with_snoop[1] and with_snoop[2] is None  # clean v6-only
    # Without snooping, the first responder wins the race; the gateway's
    # pool may bind the client to IPv4 despite its option-108 request.
    assert without[2] is not None or without[1]


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


def test_ablation_switch_ra(benchmark):
    rows = benchmark(run_switch_ra_ablation)
    report(
        "Ablation A2 — managed-switch RA workaround",
        [
            f"switch-ra={'on ' if ra else 'off'}: RDNSS alive={alive}  "
            f"W10 browse→{landed}  poison answers={poisons}"
            for ra, alive, landed, poisons in rows
        ],
    )
    on = rows[0]
    off = rows[1]
    assert on[1] and on[3] == 0  # alive RDNSS, W10 never poisoned
    # Without the workaround the ULA resolver is dead; W10 falls back to
    # the poisoned DHCP resolver — and (being dual-stack) still reaches
    # the site via the forwarded AAAA, but now *does* touch the poison.
    assert not off[1]
    assert off[3] > 0


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


def test_ablation_option_108(benchmark):
    rows = benchmark(run_option108_ablation)
    report(
        "Ablation A3 — DHCPv4 option 108",
        [
            f"option108={'on ' if on else 'off'}: accurate v6-only={v6only}/6  "
            f"pool addresses consumed={leases}"
            for on, v6only, leases in rows
        ],
    )
    assert rows[0][1] == 6 and rows[1][1] == 0
    assert rows[0][2] == 0 and rows[1][2] == 6  # §II: grants spare the pool


def run_poison_target_ablation():
    """Figure 5's lesson: where the poison points decides whether the
    intervention informs or misleads."""
    rows = []
    for target in ("ip6.me", "test-ipv6.com"):
        testbed = build_testbed(TestbedConfig(poison_target=target))
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        from repro.core.scoring import score_stock
        from repro.services.testipv6 import run_test_ipv6

        score = score_stock(run_test_ipv6(client, testbed.mirror))
        landed = client.fetch("sc24.supercomputing.org").landed_on
        rows.append((target, landed, score.score))
    return rows


def test_ablation_poison_target(benchmark):
    rows = benchmark(run_poison_target_ablation)
    report(
        "Ablation A4 — poison target choice (the figure-5 fix)",
        [
            f"target={target:15s}: browse→{landed:12s} mirror score={score}/10"
            for target, landed, score in rows
        ],
    )
    by_target = {r[0]: r for r in rows}
    assert by_target["ip6.me"][2] == 0  # honest failure + explanation
    assert by_target["test-ipv6.com"][2] == 10  # misleading perfection


def run_rpz_overhead():
    """dnsmasq-style vs RPZ: the RPZ always consults the upstream, so
    its A-query cost includes a full upstream round trip."""
    zone = Zone("supercomputing.org")
    zone.add_a("sc24.supercomputing.org", "190.92.158.4")
    upstream = DNS64Resolver([zone])
    poison = IPv4Address("23.153.8.71")
    dnsmasq = PoisonedDNSServer(InterventionConfig(poison_address=poison), upstream.handle_query)
    rpz = RPZPolicyServer(RpzConfig(poison_address=poison), upstream.handle_query)
    wire = DnsMessage.query("sc24.supercomputing.org", RRType.A, ident=1).encode()
    import timeit

    n = 2000
    t_dnsmasq = timeit.timeit(lambda: dnsmasq.handle_query(wire), number=n) / n
    t_rpz = timeit.timeit(lambda: rpz.handle_query(wire), number=n) / n
    return t_dnsmasq, t_rpz


def test_ablation_rpz_overhead(benchmark):
    t_dnsmasq, t_rpz = benchmark.pedantic(run_rpz_overhead, rounds=3, iterations=1)
    report(
        "Ablation A5 — dnsmasq-style vs RPZ per-A-query cost",
        [
            f"dnsmasq-style poison: {t_dnsmasq * 1e6:8.1f} µs/query",
            f"RPZ rewrite:          {t_rpz * 1e6:8.1f} µs/query "
            f"({t_rpz / t_dnsmasq:.1f}x — the paper's 'additional configuration "
            f"complexity' has a runtime face too)",
        ],
    )
    assert t_rpz > t_dnsmasq  # correctness costs an upstream round trip
