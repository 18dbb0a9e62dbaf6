"""DNS-log analytics: spotting IPv4-only clients from the server side."""

import pytest

from repro.analysis.dnsstats import analyze_dns_logs
from repro.clients.profiles import NINTENDO_SWITCH, WINDOWS_11, WINDOWS_XP


@pytest.fixture
def populated(testbed):
    nsw = testbed.add_client(NINTENDO_SWITCH, "nsw")
    xp = testbed.add_client(WINDOWS_XP, "xp")
    w11 = testbed.add_client(WINDOWS_11, "w11")
    for client in (nsw, xp, w11):
        client.fetch("sc24.supercomputing.org")
        client.fetch("ip6.me")
    return testbed, nsw, xp, w11


class TestDnsLogAnalysis:
    def test_v4_only_client_flagged(self, populated):
        testbed, nsw, xp, w11 = populated
        analysis = analyze_dns_logs([testbed.poisoner, testbed.dns64])
        nsw_v4 = str(nsw.host.ipv4_config.address)
        suspects = {p.client for p in analysis.ipv4_only_suspects}
        assert suspects == {nsw_v4}

    def test_dual_stack_dhcp_clients_not_flagged(self, populated):
        """XP and W11 consume poisoned A answers too, but they also ask
        for (and use) AAAA — they must not be flagged."""
        testbed, nsw, xp, w11 = populated
        analysis = analyze_dns_logs([testbed.poisoner, testbed.dns64])
        suspects = {p.client for p in analysis.ipv4_only_suspects}
        assert str(xp.host.ipv4_config.address) not in suspects
        assert str(w11.host.ipv4_config.address) not in suspects

    def test_profile_counters(self, populated):
        testbed, nsw, xp, w11 = populated
        analysis = analyze_dns_logs([testbed.poisoner])
        xp_profile = analysis.profiles[str(xp.host.ipv4_config.address)]
        assert xp_profile.a_queries > 0
        assert xp_profile.aaaa_queries > 0
        assert xp_profile.poisoned_answers > 0
        assert xp_profile.total == xp_profile.a_queries + xp_profile.aaaa_queries

    def test_table_renders(self, populated):
        testbed, nsw, xp, w11 = populated
        analysis = analyze_dns_logs([testbed.poisoner, testbed.dns64])
        table = analysis.table()
        assert "YES" in table and "no" in table

    def test_empty_logs(self):
        analysis = analyze_dns_logs([])
        assert not analysis.profiles
        assert analysis.ipv4_only_suspects == []

    def test_top_names_recorded(self, populated):
        testbed, nsw, xp, w11 = populated
        analysis = analyze_dns_logs([testbed.poisoner])
        nsw_profile = analysis.profiles[str(nsw.host.ipv4_config.address)]
        assert "sc24.supercomputing.org" in nsw_profile.top_names
