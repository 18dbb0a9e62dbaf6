"""End-to-end reproduction of every figure in the paper's evaluation.

Each test is one experiment from the DESIGN.md index (E1-E16): it builds
the figure-4 testbed (E1: the Argonne edge of figure 1), attaches the
device the paper tested, and asserts the *shape* of the paper's
observation.
"""

import pytest

from repro.clients.apps import EcholinkApp
from repro.clients.profiles import (
    LINUX,
    MACOS,
    NINTENDO_SWITCH,
    WINDOWS_10,
    WINDOWS_10_V6_DISABLED,
    WINDOWS_11,
    WINDOWS_11_RFC8925,
    WINDOWS_XP,
)
from repro.clients.vpn import SplitTunnelVPN, VpnAwareClient, VpnMode
from repro.core.scoring import score_rfc8925_aware, score_stock
from repro.core.testbed import (
    build_testbed,
    CARRIER_DNS_V4,
    CONCENTRATOR_V4,
    PI_HEALTHY_V6,
    PI_POISON_V4,
    PI_POOL_FIRST,
    PI_POOL_LAST,
    SC24_WEB_V4,
    TestbedConfig,
    ULA_PREFIX,
    VTC_V4,
)
from repro.dns.rdata import RRType
from repro.net.addresses import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    is_gua,
    is_ula,
)
from repro.services.captive import connectivity_probe, ProbeOutcome
from repro.services.testipv6 import run_test_ipv6
from repro.sim.engine import EventEngine
from repro.sim.host import ServerHost
from repro.sim.node import connect
from repro.sim.router import Router
from repro.sim.switch import ManagedSwitch


def build_argonne_edge():
    """Figure 1's shape: campus LAN → enterprise firewall → ESnet border
    router → 'internet', dual-stacked on every hop (the /32-on-new-
    firewall deployment)."""
    engine = EventEngine(seed=11)
    firewall = Router(engine, "ngfw-100g")
    border = Router(engine, "esnet-border")
    campus = ManagedSwitch(engine, "campus")
    transit = ManagedSwitch(engine, "transit")
    wan = ManagedSwitch(engine, "wan")

    firewall.add_interface(
        "inside",
        ipv4=(IPv4Address("130.202.1.1"), IPv4Network("130.202.1.0/24")),
        ipv6=(IPv6Address("2620:0:dc1:1::1"), IPv6Network("2620:0:dc1:1::/64")),
    )
    firewall.add_interface(
        "outside",
        ipv4=(IPv4Address("198.124.252.1"), IPv4Network("198.124.252.0/30")),
        ipv6=(IPv6Address("2001:400:6100::1"), IPv6Network("2001:400:6100::/64")),
    )
    border.add_interface(
        "inside",
        ipv4=(IPv4Address("198.124.252.2"), IPv4Network("198.124.252.0/30")),
        ipv6=(IPv6Address("2001:400:6100::2"), IPv6Network("2001:400:6100::/64")),
    )
    border.add_interface(
        "outside",
        ipv4=(IPv4Address("198.51.100.1"), IPv4Network("198.51.100.0/24")),
        ipv6=(IPv6Address("2001:db8:feed::1"), IPv6Network("2001:db8:feed::/64")),
    )
    # Static routing both directions.
    firewall.add_route_v4(IPv4Network("0.0.0.0/0"), "outside", IPv4Address("198.124.252.2"))
    firewall.add_route_v6(IPv6Network("::/0"), "outside", border.ifaces["inside"].link_local)
    border.add_route_v4(IPv4Network("130.202.0.0/16"), "inside", IPv4Address("198.124.252.1"))
    border.add_route_v6(IPv6Network("2620:0:dc1::/48"), "inside", firewall.ifaces["outside"].link_local)
    border.add_route_v4(IPv4Network("0.0.0.0/0"), "outside")
    border.add_route_v6(IPv6Network("::/0"), "outside")

    connect(engine, firewall.port("inside"), campus.add_port("p-fw"))
    connect(engine, firewall.port("outside"), transit.add_port("p-fw"))
    connect(engine, border.port("inside"), transit.add_port("p-border"))
    connect(engine, border.port("outside"), wan.add_port("p-border"))

    inside_host = ServerHost(
        engine,
        "beamline",
        ipv4=IPv4Address("130.202.1.10"),
        ipv4_network=IPv4Network("130.202.1.0/24"),
        ipv4_gateway=IPv4Address("130.202.1.1"),
        ipv6=IPv6Address("2620:0:dc1:1::10"),
        ipv6_gateway=firewall.ifaces["inside"].link_local,
    )
    outside_host = ServerHost(
        engine,
        "internet-host",
        ipv4=IPv4Address("198.51.100.80"),
        ipv4_network=IPv4Network("198.51.100.0/24"),
        ipv4_gateway=IPv4Address("198.51.100.1"),
        ipv6=IPv6Address("2001:db8:feed::80"),
        ipv6_gateway=border.ifaces["outside"].link_local,
    )
    connect(engine, inside_host.port("eth0"), campus.add_port("p-h"))
    connect(engine, outside_host.port("eth0"), wan.add_port("p-h"))
    return engine, inside_host, outside_host


class TestFig1Edge:
    """E1: the Argonne edge forwards both families end to end, through
    the firewall and the border router, at the same simulated cost."""

    def test_dual_stack_pings_cross_both_routers(self):
        _, inside, _ = build_argonne_edge()
        v4_rtt = inside.ping(IPv4Address("198.51.100.80"))
        v6_rtt = inside.ping(IPv6Address("2001:db8:feed::80"))
        assert v4_rtt * 1000 == pytest.approx(12.0)
        assert v6_rtt * 1000 == pytest.approx(12.0)


class TestFig2Echolink:
    """E2: an IPv4-literal app works on the v6 SSID over dual-stack and
    pollutes the naive v6-only statistics."""

    def test_dual_stack_literal_app_and_census_pollution(self, testbed):
        testbed.sc24_web.tcp_listen(5200, lambda conn: conn.close())
        laptop = testbed.add_client(WINDOWS_10, "echolink-laptop")
        app = EcholinkApp([SC24_WEB_V4], port=5200)
        result = app.connect(laptop)
        assert result.connected and result.family == "ipv4"
        census = testbed.census()
        # The laptop has v6 addresses, so the naive count includes it...
        assert census.naive_ipv6_only_count() == 1
        # ...but it is not an IPv6-only client.
        assert census.accurate_ipv6_only_count() == 0


class TestFig3GatewayQuirks:
    """E3: the raw gateway leaks dead ULA RDNSS; the switch RA + DHCP
    snooping workarounds fix name resolution."""

    def test_dead_rdnss_without_workarounds(self, testbed_raw):
        client = testbed_raw.add_client(LINUX, "lin")
        assert client.host.slaac.rdnss == [
            IPv6Address("fd00:976a::9"),
            IPv6Address("fd00:976a::10"),
        ]
        # Nothing lives at those addresses:
        from repro.dns.message import DnsMessage

        query = DnsMessage.query("ip6.me", RRType.AAAA, ident=1).encode()
        assert client.host.udp_exchange(IPv6Address("fd00:976a::9"), 53, query, timeout=0.5) is None

    def test_workaround_brings_rdnss_alive(self, testbed):
        client = testbed.add_client(LINUX, "lin")
        from repro.dns.message import DnsMessage

        query = DnsMessage.query("ip6.me", RRType.AAAA, ident=1).encode()
        assert client.host.udp_exchange(PI_HEALTHY_V6, 53, query, timeout=1.0) is not None

    def test_gateway_remains_default_router(self, testbed):
        """The switch RA is LOW preference with zero router lifetime, so
        the default route still points at the 5G gateway."""
        client = testbed.add_client(LINUX, "lin")
        router = client.host.slaac.default_router()
        assert router is not None
        assert router.address == testbed.gateway.lan_iface.link_local

    def test_prefix_rotation_on_reboot(self, testbed):
        """Three reboots, four distinct GUA /64s."""
        prefixes = [testbed.gateway.gua_prefix]
        prefixes += [testbed.gateway.reboot() for _ in range(3)]
        assert prefixes == [IPv6Network(f"2607:fb90:9bda:a40{i}::/64") for i in range(4)]


class TestFig4Testbed:
    """E4: the full topology converges for every client class."""

    def test_clients_get_ula_and_gua(self, testbed):
        client = testbed.add_client(LINUX, "lin")
        addresses = client.host.ipv6_global_addresses()
        assert any(is_ula(a) for a in addresses)
        assert any(is_gua(a) for a in addresses)

    def test_pi_dhcp_is_the_only_working_pool(self, testbed):
        client = testbed.add_client(NINTENDO_SWITCH, "sw")
        assert client.host.ipv4_config.address < IPv4Address("192.168.12.100")

    def test_every_client_class_converges(self, testbed):
        """One testbed, the three client classes of the figure."""
        mac = testbed.add_client(MACOS, "mac")
        lin = testbed.add_client(LINUX, "lin")
        nsw = testbed.add_client(NINTENDO_SWITCH, "nsw")
        # RFC 8925: option 108 granted instead of a lease; a ULA and a GUA.
        assert mac.host.v6only_wait is not None and mac.host.ipv4_config is None
        assert sorted(map(is_ula, mac.host.ipv6_global_addresses())) == [False, True]
        # Dual-stack: a Pi-pool lease and the same two IPv6 addresses.
        assert PI_POOL_FIRST <= lin.host.ipv4_config.address <= PI_POOL_LAST
        assert len(lin.host.ipv6_global_addresses()) == 2
        # IPv4-only: a Pi-pool lease and no IPv6 at all.
        assert PI_POOL_FIRST <= nsw.host.ipv4_config.address <= PI_POOL_LAST
        assert not nsw.host.ipv6_global_addresses()
        # Snooping is dropping the gateway's own DHCP pool.
        assert testbed.switch.snooper.dropped > 0


class TestFig5ErroneousScore:
    """E5: IPv6-disabled client + poison→mirror = erroneous 10/10."""

    def test_stock_score_erroneously_perfect(self, testbed_fig5):
        client = testbed_fig5.add_client(WINDOWS_10_V6_DISABLED, "w10-nov6")
        report = run_test_ipv6(client, testbed_fig5.mirror)
        assert not client.host.ipv6_global_addresses()  # truly no IPv6
        assert score_stock(report).score == 10  # and yet: 10/10

    def test_ipv6_subtests_actually_ran_over_ipv4(self, testbed_fig5):
        client = testbed_fig5.add_client(WINDOWS_10_V6_DISABLED, "w10-nov6")
        report = run_test_ipv6(client, testbed_fig5.mirror)
        aaaa_subtest = report.subtest("aaaa_record_fetch")
        assert aaaa_subtest.passed and aaaa_subtest.family_seen == "ipv4"

    def test_fixed_scorer_not_fooled(self, testbed_fig5):
        client = testbed_fig5.add_client(WINDOWS_10_V6_DISABLED, "w10-nov6")
        report = run_test_ipv6(client, testbed_fig5.mirror)
        breakdown = score_rfc8925_aware(report, testbed_fig5.scoring_context())
        assert (breakdown.score, breakdown.classified_as) == (6, "ipv4-only or degraded")

    def test_final_design_scores_low_instead(self, testbed):
        """With the poison re-pointed at ip6.me (the §V change), the same
        client scores 0 and sees the explanation page."""
        client = testbed.add_client(WINDOWS_10_V6_DISABLED, "w10-nov6")
        report = run_test_ipv6(client, testbed.mirror)
        assert score_stock(report).score == 0


class TestFig6NintendoSwitch:
    """E6: the IPv4-only device reports no internet and lands on ip6.me;
    a manual DNS change is the escape hatch."""

    def test_probe_reports_portal_not_online(self, testbed):
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        probe = connectivity_probe(client)
        assert probe.outcome is ProbeOutcome.PORTAL
        assert probe.landed_on == "ip6.me"

    def test_browse_lands_on_ip6me_with_v4_explanation(self, testbed):
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        outcome = client.fetch("sc24.supercomputing.org")
        assert outcome.landed_on == "ip6.me"
        assert outcome.response.headers["x-client-family"] == "ipv4"
        assert b"legacy IPv4" in outcome.response.body

    def test_manual_dns_escape_hatch(self, testbed):
        """'if the end user simply changed the DNS resolver to a
        known-good server, access to the IPv4 internet would be granted'."""
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        client.set_manual_dns([CARRIER_DNS_V4])
        outcome = client.fetch("sc24.supercomputing.org")
        assert outcome.landed_on == "sc24.supercomputing.org"
        probe = connectivity_probe(client)
        assert probe.outcome is ProbeOutcome.ONLINE


class TestFig7WindowsXP:
    """E7: the IPv4-resolver-only dual-stack client works via the
    poisoned DNS64's intact AAAA path + NAT64."""

    def test_xp_reaches_v4_only_site_over_v6(self, testbed):
        client = testbed.add_client(WINDOWS_XP, "xp")
        assert client.dns_server_order() == [PI_POISON_V4]  # poisoned!
        # The figure's ipconfig: connection-specific suffix and a ULA.
        assert client.search_domains() == ["rfc8925.com"]
        assert any(a in ULA_PREFIX for a in client.host.ipv6_global_addresses())
        outcome = client.fetch("sc24.supercomputing.org")
        assert outcome.ok
        assert outcome.landed_on == "sc24.supercomputing.org"
        assert outcome.address == IPv6Address("64:ff9b::be5c:9e04")

    def test_xp_ping_through_nat64(self, testbed):
        client = testbed.add_client(WINDOWS_XP, "xp")
        assert client.ping_name("sc24.supercomputing.org") is not None
        assert testbed.gateway.nat64.translated_out > 0

    def test_xp_ping_ip6me_native_v6(self, testbed):
        client = testbed.add_client(WINDOWS_XP, "xp")
        addresses = client.resolve_addresses("ip6.me")
        assert addresses[0] == IPv6Address("2001:4810:0:3::71")
        assert client.ping_name("ip6.me") is not None


class TestFig8VpnSplitTunnel:
    """E8: split-tunnel VPN with IPv4 literals breaks if IPv4 internet
    is further restricted — the reason the paper does NOT block IPv4."""

    def _vpn(self, testbed, client):
        return SplitTunnelVPN(
            client,
            testbed.concentrator,
            CONCENTRATOR_V4,
            corporate_dns=CARRIER_DNS_V4,
            mode=VpnMode.SPLIT_TUNNEL,
            split_literals=[VTC_V4],
        )

    def test_vtc_works_while_ipv4_allowed(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        vpn = self._vpn(testbed, client)
        assert vpn.connect()
        assert vpn.fetch_literal(VTC_V4, "vtc.example.com").ok

    def test_vtc_breaks_when_ipv4_blocked(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        vpn = self._vpn(testbed, client)
        vpn.connect()
        from repro.xlat.siit import TranslationError

        class Acl:
            def translate_out(self, p):
                raise TranslationError("blocked")

            def translate_in(self, p):
                raise TranslationError("blocked")

        testbed.gateway.nat44 = Acl()
        assert not vpn.fetch_literal(VTC_V4, "vtc.example.com").ok
        # The tunnel itself also cannot re-establish:
        vpn.disconnect()
        assert not vpn.connect()

    def test_dns_intervention_alone_does_not_break_vtc(self, testbed):
        """The paper's key design point: poisoning DNS leaves literal
        traffic (and thus the VTC split tunnel) working."""
        client = testbed.add_client(WINDOWS_10, "w10")
        vpn = self._vpn(testbed, client)
        vpn.connect()
        assert vpn.fetch_literal(VTC_V4, "vtc.example.com").ok


class TestFig9SuffixPoisoning:
    """E9: nslookup receives a poisoned A for a nonexistent FQDN via the
    suffix search list; ping gets the valid AAAA."""

    def test_nslookup_nonexistent_fqdn_answered(self, testbed):
        client = testbed.add_client(WINDOWS_11, "w11")
        result = client.nslookup("vpn.anl.gov")
        assert str(result.queried_name) == "vpn.anl.gov.rfc8925.com"
        assert result.records[0].rdata.address == IPv4Address("23.153.8.71")

    def test_ping_gets_valid_synthesized_aaaa(self, testbed):
        client = testbed.add_client(WINDOWS_11, "w11")
        addresses = client.resolve_addresses("vpn.anl.gov")
        assert addresses[0] == IPv6Address("64:ff9b::82ca:e4fd")
        assert client.ping_name("vpn.anl.gov") is not None

    def test_rpz_fixes_nxdomain_e13(self):
        """E13: the RPZ alternative answers NXDOMAIN for the suffixed
        name while still intervening on real names."""
        testbed = build_testbed(TestbedConfig(use_rpz=True))
        client = testbed.add_client(WINDOWS_11, "w11")
        result = client.nslookup("vpn.anl.gov")
        # With RPZ, the suffixed query fails and the literal name is
        # rewritten instead — nslookup reports the poison for the REAL
        # name, not a fabricated one.
        assert str(result.queried_name) == "vpn.anl.gov"
        assert result.records[0].rdata.address == IPv4Address("23.153.8.71")
        # The suffixed query's NXDOMAIN was passed through, not poisoned.
        assert testbed.poisoner.passed_negative == 1
        # And v4-only clients are still intervened:
        switch = testbed.add_client(NINTENDO_SWITCH, "sw")
        assert switch.fetch("sc24.supercomputing.org").landed_on == "ip6.me"


class TestFig10RdnssPreference:
    """E10: Windows 10 prefers the RDNSS resolver, so the poisoned IPv4
    server is never consulted."""

    def test_w10_never_touches_poison(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        client.fetch("vpn.anl.gov")
        client.fetch("sc24.supercomputing.org")
        assert testbed.poisoner.poison_answers == 0

    def test_w10_gets_real_records(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        assert client.dns_server_order() == [
            IPv6Address("fd00:976a::9"),
            IPv6Address("fd00:976a::10"),
            PI_POISON_V4,
        ]
        result = client.resolver.resolve("vpn.anl.gov", RRType.A)
        assert result.records[0].rdata.address == IPv4Address("130.202.228.253")

    def test_w11_dhcp_preference_does_touch_poison(self, testbed):
        """The contrast case the paper calls out for 'some versions of
        Windows 11'."""
        client = testbed.add_client(WINDOWS_11, "w11")
        assert client.dns_server_order() == [
            PI_POISON_V4,
            IPv6Address("fd00:976a::9"),
            IPv6Address("fd00:976a::10"),
        ]
        result = client.resolver.resolve("vpn.anl.gov", RRType.A)
        assert result.records[0].rdata.address == IPv4Address("23.153.8.71")
        assert testbed.poisoner.poison_answers > 0


class TestFig11VpnMirrorScore:
    """E11: a full-tunnel (v4-only, corporate-egress) VPN client scores
    0/10 on the mirror."""

    def test_zero_score_over_vpn(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        vpn = SplitTunnelVPN(
            client,
            testbed.concentrator,
            CONCENTRATOR_V4,
            corporate_dns=CARRIER_DNS_V4,
            mode=VpnMode.FULL_TUNNEL,
            allowed_tunnel_destinations=[],  # corporate-only egress
        )
        assert vpn.connect()
        report = run_test_ipv6(VpnAwareClient(vpn), testbed.mirror)
        assert score_stock(report).score == 0

    def test_same_client_without_vpn_is_fine(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10-novpn")
        report = run_test_ipv6(client, testbed.mirror)
        assert score_stock(report).score == 10


class TestE14ScoringFix:
    """E14: only RFC 8925 clients reach 10/10 under the fixed scorer."""

    def test_rfc8925_ten_dual_stack_nine(self, testbed):
        context = testbed.scoring_context()
        mac = testbed.add_client(MACOS, "mac")
        dual = testbed.add_client(WINDOWS_10, "w10")
        mac_report = run_test_ipv6(mac, testbed.mirror)
        dual_report = run_test_ipv6(dual, testbed.mirror)
        # Stock logic cannot tell them apart (the paper's complaint)...
        assert score_stock(mac_report).score == score_stock(dual_report).score == 10
        # ...the fixed scorer can.
        mac_score = score_rfc8925_aware(mac_report, context)
        dual_score = score_rfc8925_aware(dual_report, context)
        assert mac_score.score == 10
        assert mac_score.classified_as == "rfc8925 (IPv6-only with CLAT)"
        assert dual_score.score == 9 and dual_score.classified_as == "dual-stack"

    def test_future_windows11_rfc8925_build(self, testbed):
        w11 = testbed.add_client(WINDOWS_11_RFC8925, "w11-future")
        breakdown = score_rfc8925_aware(
            run_test_ipv6(w11, testbed.mirror), testbed.scoring_context()
        )
        assert breakdown.score == 10


class TestE15NoImpact:
    """E15: the intervention must not perturb RFC 8925, v6-only or
    RDNSS-preferring dual-stack clients at all."""

    @pytest.mark.parametrize("profile", [MACOS, WINDOWS_10, LINUX, WINDOWS_11_RFC8925],
                             ids=lambda p: p.name)
    def test_browse_identical_with_and_without_intervention(self, profile):
        with_poison = build_testbed(TestbedConfig(poisoned_dns=True))
        without = build_testbed(TestbedConfig(poisoned_dns=False))
        a = with_poison.add_client(profile, "dev")
        b = without.add_client(profile, "dev")
        for site in ("sc24.supercomputing.org", "ip6.me", "test-ipv6.com"):
            start_on, start_off = with_poison.engine.now, without.engine.now
            oa = a.fetch(site)
            ob = b.fetch(site)
            assert oa.landed_on == ob.landed_on == site
            assert oa.family == ob.family
            # The poisoned path is never consulted, so the simulated fetch
            # takes exactly as long.
            assert with_poison.engine.now - start_on == without.engine.now - start_off

    def test_only_v4_only_clients_hit_the_poison(self, testbed):
        testbed.add_client(MACOS, "mac").fetch("sc24.supercomputing.org")
        testbed.add_client(WINDOWS_10, "w10").fetch("sc24.supercomputing.org")
        assert testbed.poisoner.poison_answers == 0
        testbed.add_client(NINTENDO_SWITCH, "sw").fetch("sc24.supercomputing.org")
        assert testbed.poisoner.poison_answers > 0


class TestE16Rollback:
    """E16: the removal playbook cleanly reverts the intervention."""

    def test_full_cycle(self, testbed):
        """Remove, roll back, redeploy: a fresh IPv4-only device lands on
        ip6.me, then the real site, then ip6.me twice."""

        def landing(name):
            client = testbed.add_client(NINTENDO_SWITCH, name)
            return client.fetch("sc24.supercomputing.org").landed_on

        assert landing("sw0") == "ip6.me"
        playbook = testbed.remove_intervention_playbook()
        run = playbook.run()
        assert run.ok
        assert landing("sw1") == "sc24.supercomputing.org"
        playbook.rollback(run)
        assert landing("sw2") == "ip6.me"
        assert testbed.deploy_intervention_playbook().run().ok
        assert landing("sw3") == "ip6.me"
