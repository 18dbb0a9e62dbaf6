"""Happy Eyeballs (RFC 8305) racing over the simulated stack."""

import pytest

from repro.clients.happy_eyeballs import happy_eyeballs_connect
from repro.clients.profiles import WINDOWS_10
from repro.core.testbed import build_testbed, TestbedConfig
from repro.net.addresses import IPv4Address, IPv6Address


@pytest.fixture
def world():
    testbed = build_testbed(TestbedConfig())
    client = testbed.add_client(WINDOWS_10, "w10")
    return testbed, client


MIRROR_V4 = IPv4Address("216.218.228.115")
MIRROR_V6 = IPv6Address("2001:470:1:18::115")


def blackhole_forwarded_v6(testbed):
    """Silently eat every IPv6 packet the gateway would forward, but keep
    its own NDP and local traffic, so clients still believe they have
    IPv6: the realistic breakage."""
    deliver = testbed.gateway.lan_iface.on_ipv6

    def selective(packet):
        if packet.dst in testbed.gateway.lan_iface.ipv6_addresses:
            return deliver(packet)
        return None

    testbed.gateway.lan_iface.on_ipv6 = selective


class TestRace:
    def test_preferred_candidate_wins_when_healthy(self, world):
        testbed, client = world
        result = happy_eyeballs_connect(client.host, [MIRROR_V6, MIRROR_V4], 80)
        assert result.ok
        assert result.winner == MIRROR_V6
        assert result.attempts == [MIRROR_V6]  # v4 never even started
        result.connection.close()

    def test_fallback_when_v6_path_dead(self, world):
        """Break native v6 forwarding: the race must fall back to v4
        after ~one attempt delay, not a full TCP timeout."""
        testbed, client = world
        blackhole_forwarded_v6(testbed)

        result = happy_eyeballs_connect(
            client.host, [MIRROR_V6, MIRROR_V4], 80, attempt_delay=0.25, timeout=3.0
        )
        assert result.ok
        assert result.winner == MIRROR_V4
        assert result.attempts == [MIRROR_V6, MIRROR_V4]
        # Converged in one stagger delay plus the v4 handshake, far below
        # the timeout.
        assert result.elapsed == pytest.approx(0.258)
        result.connection.close()

    def test_all_candidates_dead(self, world):
        testbed, client = world
        result = happy_eyeballs_connect(
            client.host,
            [IPv6Address("2001:db8:dead::1"), IPv4Address("203.0.113.250")],
            80,
            timeout=1.0,
        )
        assert not result.ok
        assert result.elapsed <= 1.01

    def test_refused_candidate_skipped_immediately(self, world):
        testbed, client = world
        # Port 81 is closed on the mirror: v6 attempt gets RST instantly,
        # so the v4 attempt starts without waiting the full delay...
        # but port 81 is closed there too. Use mixed ports via two hosts:
        result = happy_eyeballs_connect(
            client.host, [MIRROR_V6], 81, timeout=1.0
        )
        assert not result.ok
        assert result.elapsed < 0.5  # RST beats timeout

    def test_no_candidates(self, world):
        testbed, client = world
        result = happy_eyeballs_connect(client.host, [], 80, timeout=0.5)
        assert not result.ok


class TestFetchIntegration:
    def test_fetch_happy_eyeballs_healthy(self, world):
        testbed, client = world
        outcome = client.fetch("test-ipv6.com", happy_eyeballs=True)
        assert outcome.ok
        assert outcome.family == "ipv6"
        assert "happy-eyeballs" in outcome.detail

    def test_fetch_happy_eyeballs_falls_back_fast(self, world):
        testbed, client = world
        blackhole_forwarded_v6(testbed)
        start = testbed.engine.now
        outcome = client.fetch("test-ipv6.com", happy_eyeballs=True)
        elapsed = testbed.engine.now - start
        assert outcome.ok
        assert outcome.family == "ipv4"
        assert elapsed < 1.5

    def test_sequential_fetch_still_works(self, world):
        """Without Happy Eyeballs the same breakage costs the full 3 s
        TCP timeout on the v6 candidate before v4 is tried."""
        testbed, client = world
        blackhole_forwarded_v6(testbed)
        start = testbed.engine.now
        outcome = client.fetch("test-ipv6.com", happy_eyeballs=False)
        elapsed = testbed.engine.now - start
        assert outcome.ok
        assert outcome.family == "ipv4"
        assert elapsed > 3.0
