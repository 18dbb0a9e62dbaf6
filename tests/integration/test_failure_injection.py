"""Failure injection: what the testbed does when parts of it break.

These scenarios are the supportability questions a production rollout
(paper §VI "open items") must answer: what do clients experience when
the healthy DNS64 dies behind the poisoner, when the DHCP Pi goes away,
when the gateway reboots mid-session, or when the pool runs dry.
"""


from repro.clients.profiles import (
    LEGACY_IOT,
    LINUX,
    MACOS,
    NINTENDO_SWITCH,
    WINDOWS_10,
    WINDOWS_XP,
)
from repro.core.testbed import build_testbed, PI_HEALTHY_V6, PI_POOL_SIZE, TestbedConfig
from repro.dns.rdata import RCode, RRType
from repro.net.addresses import IPv4Address, IPv6Address


class TestHealthyDns64Outage:
    """The poisoned server's upstream dies (Pi #1 crash)."""

    def _kill_healthy_pi(self, testbed):
        testbed.pi_healthy.port("eth0")._link.disconnect()

    def test_a_poisoning_survives_upstream_death(self, testbed):
        """dnsmasq's address=/#/ line needs no upstream: IPv4-only
        clients still get the intervention page."""
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        self._kill_healthy_pi(testbed)
        outcome = client.fetch("sc24.supercomputing.org")
        assert outcome.landed_on == "ip6.me"

    def test_aaaa_resolution_breaks_for_dhcp_resolver_clients(self, testbed):
        """Windows XP-style clients lose AAAA service (SERVFAIL) when
        the healthy DNS64 is gone — the single point of failure §VI
        should worry about."""
        client = testbed.add_client(WINDOWS_XP, "xp")
        self._kill_healthy_pi(testbed)
        result = client.resolver.resolve("sc24.supercomputing.org", RRType.AAAA)
        assert result.rcode == RCode.SERVFAIL

    def test_rdnss_clients_lose_dns_entirely(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        self._kill_healthy_pi(testbed)
        client.resolver.flush_cache()
        # W10 falls through RDNSS (dead) to the DHCP resolver (poisoned,
        # which forwards AAAA to the dead healthy server → SERVFAIL).
        result = client.resolver.resolve("example-fresh.supercomputing.org", RRType.AAAA)
        assert result.rcode in (RCode.SERVFAIL, RCode.NXDOMAIN)


class TestDhcpPiOutage:
    def test_no_ipv4_for_new_clients_but_v6_unharmed(self, testbed):
        testbed.pi_dhcp.port("eth0")._link.disconnect()
        client = testbed.add_client(LINUX, "lin")
        # DHCP fails (snooping still blocks the gateway's pool)...
        assert client.host.ipv4_config is None
        # ...but SLAAC IPv6 and the ULA DNS path keep working.
        assert client.host.ipv6_global_addresses()
        from repro.dns.message import DnsMessage

        query = DnsMessage.query("ip6.me", RRType.AAAA, ident=1).encode()
        assert client.host.udp_exchange(PI_HEALTHY_V6, 53, query, timeout=1.0) is not None

    def test_snooping_off_gateway_pool_rescues_clients(self):
        testbed = build_testbed(TestbedConfig(dhcp_snooping=False))
        testbed.pi_dhcp.port("eth0")._link.disconnect()
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        # The gateway's (option-108-ignorant) pool answers instead.
        assert client.host.ipv4_config is not None
        assert client.host.ipv4_config.address >= IPv4Address("192.168.12.100")


class TestPoolExhaustion:
    def test_51st_client_gets_nothing(self, testbed):
        """The Pi pool is .50-.99 (50 addresses) — the §II scenario of
        wireless pools running dry, in miniature."""
        clients = [
            testbed.add_client(NINTENDO_SWITCH, f"dev-{i}") for i in range(50)
        ]
        assert all(c.host.ipv4_config is not None for c in clients)
        overflow = testbed.add_client(NINTENDO_SWITCH, "dev-overflow")
        assert overflow.host.ipv4_config is None

    def test_rfc8925_clients_dont_exhaust_the_pool(self, testbed):
        """Option-108 grants use 0.0.0.0 — a hall full of modern phones
        costs zero IPv4 addresses (the paper's §II motivation)."""
        for i in range(60):  # more grants than the pool has addresses
            testbed.add_client(MACOS, f"phone-{i}")
        legacy = testbed.add_client(NINTENDO_SWITCH, "legacy")
        assert legacy.host.ipv4_config is not None

    def test_starved_iot_box_never_reaches_the_intervention(self, testbed):
        """The §VII fleet past the pool: once Windows 10 boxes hold every
        lease, the IPv4-only IoT box that joins last gets none, so its
        lookup never reaches the poisoner and it never sees ip6.me."""
        for i in range(PI_POOL_SIZE):
            testbed.add_client(WINDOWS_10, f"w10-{i}")
        iot = testbed.add_client(LEGACY_IOT, "iot")
        assert iot.host.ipv4_config is None
        poisoned = testbed.poisoner.poison_answers
        outcome = iot.fetch("sc24.supercomputing.org")
        assert outcome.detail == "name resolution failed"
        assert outcome.landed_on != "ip6.me"
        assert testbed.poisoner.poison_answers == poisoned


class TestGatewayReboot:
    def test_clients_recover_after_reboot(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        assert client.fetch("sc24.supercomputing.org").ok
        old_prefix = testbed.gateway.gua_prefix
        testbed.gateway.reboot()
        testbed.run_for(1.0)
        client.host.solicit_routers()
        testbed.run_for(1.0)
        client.resolver.flush_cache()
        # New prefix acquired alongside the (now stale) old one.
        addresses = client.host.ipv6_global_addresses()
        assert any(a in testbed.gateway.gua_prefix for a in addresses)
        assert any(a in old_prefix for a in addresses)
        outcome = client.fetch("sc24.supercomputing.org")
        assert outcome.ok, outcome.detail

    def test_old_prefix_traffic_dies_after_reboot(self, testbed):
        client = testbed.add_client(WINDOWS_10, "w10")
        old_addr = next(
            a for a in client.host.ipv6_global_addresses()
            if a in testbed.gateway.gua_prefix
        )
        testbed.gateway.reboot()
        # Traffic sourced from the old GUA is no longer forwarded: the
        # gateway only serves its current prefix.
        from repro.net.ipv4 import IPProto
        from repro.net.ipv6 import IPv6Packet
        from repro.net.icmpv6 import Icmpv6Message, encode_icmpv6

        dst = IPv6Address("2001:470:1:18::115")
        echo = Icmpv6Message.echo_request(9, 1)
        packet = IPv6Packet(old_addr, dst, IPProto.ICMPV6, encode_icmpv6(echo, old_addr, dst))
        dropped_before = testbed.gateway.dropped_ula_uplink
        client.host.iface.send_ipv6(packet, next_hop=testbed.gateway.lan_iface.link_local)
        testbed.run_for(0.5)
        assert testbed.gateway.dropped_ula_uplink > dropped_before


class TestWebServiceOutage:
    def test_intervention_page_down_looks_like_no_internet(self, testbed):
        """If ip6.me itself is unreachable the v4-only client gets a hard
        failure rather than the graceful page — operational note for a
        production deployment (host the landing page locally!)."""
        testbed.ip6me.port("eth0")._link.disconnect()
        client = testbed.add_client(NINTENDO_SWITCH, "switch")
        outcome = client.fetch("sc24.supercomputing.org")
        assert not outcome.ok

    def test_dual_stack_unaffected_by_ip6me_outage(self, testbed):
        testbed.ip6me.port("eth0")._link.disconnect()
        client = testbed.add_client(WINDOWS_10, "w10")
        assert client.fetch("sc24.supercomputing.org").ok
