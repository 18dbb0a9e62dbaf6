"""A full SC24v6 show day, end to end: build-out, device influx, an
issue report, the rollback drill, redeploy, and the closing census —
the paper's §IV-§VII narrative as one continuous system test — and
the show floor at scale (S1)."""

import pytest

from repro.analysis.dnsstats import analyze_dns_logs
from repro.clients.profiles import (
    ANDROID,
    IOS,
    LINUX,
    MACOS,
    NINTENDO_SWITCH,
    WINDOWS_10,
    WINDOWS_11,
    WINDOWS_XP,
)
from repro.core.scoring import score_rfc8925_aware, score_stock
from repro.core.testbed import build_testbed, TestbedConfig
from repro.services.captive import connectivity_probe, ProbeOutcome
from repro.services.testipv6 import run_test_ipv6


@pytest.fixture(scope="module")
def show_day():
    """Run the whole day once; the tests below assert on its phases."""
    log = {}
    testbed = build_testbed(TestbedConfig(seed=1124))  # intervention live

    # --- morning: the floor fills up -----------------------------------
    morning = [
        testbed.add_client(IOS, "attendee-phone-1"),
        testbed.add_client(ANDROID, "attendee-phone-2"),
        testbed.add_client(MACOS, "presenter-mac"),
        testbed.add_client(WINDOWS_10, "booth-laptop"),
        testbed.add_client(WINDOWS_11, "press-laptop"),
        testbed.add_client(LINUX, "noc-workstation"),
        testbed.add_client(WINDOWS_XP, "retro-demo"),
        testbed.add_client(NINTENDO_SWITCH, "gaming-corner"),
    ]
    log["morning_browse"] = {
        c.name: c.fetch("sc24.supercomputing.org") for c in morning
    }
    log["morning_probe"] = {c.name: connectivity_probe(c) for c in morning}

    # --- midday: mirror runs at the booth -------------------------------
    context = testbed.scoring_context()
    log["scores"] = {}
    for client in morning:
        report = run_test_ipv6(client, testbed.mirror)
        log["scores"][client.name] = (
            score_stock(report),
            score_rfc8925_aware(report, context),
        )

    # --- afternoon: "major issues reported" → rollback drill ------------
    playbook = testbed.remove_intervention_playbook()
    run = playbook.run()
    drill_client = testbed.add_client(NINTENDO_SWITCH, "drill-check")
    log["during_rollback"] = drill_client.fetch("sc24.supercomputing.org")
    playbook.rollback(run)
    redeploy_client = testbed.add_client(NINTENDO_SWITCH, "post-drill-check")
    log["after_redeploy"] = redeploy_client.fetch("sc24.supercomputing.org")

    # --- closing: census + NOC analytics --------------------------------
    log["census"] = testbed.census()
    log["dns_analysis"] = analyze_dns_logs([testbed.poisoner, testbed.dns64])
    log["testbed"] = testbed
    log["clients"] = morning
    return log


class TestMorning:
    def test_everyone_reaches_something(self, show_day):
        for name, outcome in show_day["morning_browse"].items():
            assert outcome.ok, f"{name}: {outcome.detail}"

    def test_v6_capable_devices_reach_the_real_site(self, show_day):
        for name, outcome in show_day["morning_browse"].items():
            if name != "gaming-corner":
                assert outcome.landed_on == "sc24.supercomputing.org", name

    def test_v4_only_device_intervened(self, show_day):
        assert show_day["morning_browse"]["gaming-corner"].landed_on == "ip6.me"
        assert show_day["morning_probe"]["gaming-corner"].outcome is ProbeOutcome.PORTAL

    def test_everyone_else_probes_online(self, show_day):
        for name, probe in show_day["morning_probe"].items():
            if name != "gaming-corner":
                assert probe.outcome is ProbeOutcome.ONLINE, name


class TestMidday:
    def test_rfc8925_devices_perfect_on_both_scorers(self, show_day):
        for name in ("attendee-phone-1", "attendee-phone-2", "presenter-mac"):
            stock, fixed = show_day["scores"][name]
            assert stock.score == 10 and fixed.score == 10, name

    def test_dual_stack_capped_by_fixed_scorer(self, show_day):
        for name in ("booth-laptop", "press-laptop", "noc-workstation", "retro-demo"):
            stock, fixed = show_day["scores"][name]
            assert stock.score == 10, name
            assert fixed.score == 9 and fixed.classified_as == "dual-stack", name

    def test_v4_only_device_scores_zero(self, show_day):
        stock, _fixed = show_day["scores"]["gaming-corner"]
        assert stock.score == 0


class TestAfternoonDrill:
    def test_rollback_and_redeploy(self, show_day):
        assert show_day["during_rollback"].landed_on == "sc24.supercomputing.org"
        assert show_day["after_redeploy"].landed_on == "ip6.me"


class TestClosing:
    def test_census_counts(self, show_day):
        census = show_day["census"]
        # 3 RFC 8925 devices are the accurate v6-only population; the
        # drill checkers and gaming corner are v4-only; the rest dual.
        assert census.accurate_ipv6_only_count() == 3
        assert census.naive_ipv6_only_count() == 7  # all v6-addressed devices

    def test_noc_finds_exactly_the_v4_only_fleet(self, show_day):
        analysis = show_day["dns_analysis"]
        testbed = show_day["testbed"]
        suspects = {p.client for p in analysis.ipv4_only_suspects}
        v4_only_addresses = {
            str(c.host.ipv4_config.address)
            for c in testbed.clients
            if c.host.ipv4_config is not None and not c.host.ipv6_global_addresses()
        }
        gaming_corner = next(c for c in testbed.clients if c.name == "gaming-corner")
        # No false positives: every suspect really is IPv4-only...
        assert suspects <= v4_only_addresses
        # ...and the all-day v4-only device was caught.  (The drill
        # checkers are v4-only too but browsed through the healthy
        # resolver while the intervention was down — legitimately
        # invisible to poison-based detection.)
        assert str(gaming_corner.host.ipv4_config.address) in suspects

    def test_no_dual_stack_client_consumed_poison_via_rdnss(self, show_day):
        """The §IV design goal, measured over the whole day: every
        poisoned answer went to a DHCP-resolver client."""
        testbed = show_day["testbed"]
        poisoned_clients = {
            str(e.client)
            for e in testbed.poisoner.query_log
            if e.answered_from == "poison"
        }
        rdnss_clients = {
            c.name
            for c in testbed.clients
            if c.profile.dns_order.value in ("rdnss-first", "rdnss-only")
        }
        # RDNSS-preferring clients appear in poison logs only if they had
        # to fall back — which never happened today:
        for client in testbed.clients:
            if client.name in rdnss_clients and client.host.ipv4_config:
                assert str(client.host.ipv4_config.address) not in poisoned_clients


#: S1's show-floor mix: (profile, attendees), fifty in all.
SHOW_FLOOR = (
    (IOS, 12),
    (ANDROID, 10),
    (MACOS, 8),
    (WINDOWS_10, 8),
    (WINDOWS_11, 5),
    (LINUX, 4),
    (NINTENDO_SWITCH, 3),
)


class TestShowFloorScale:
    def test_fifty_attendees_browse_once(self):
        """S1: "viable at scale" (§VII).  Every fetch lands somewhere,
        exactly the Switches are intervened, and the accurate census and
        the option-108 grants both count the 30 RFC 8925 phones and Macs."""
        testbed = build_testbed(TestbedConfig())
        profiles = [profile for profile, count in SHOW_FLOOR for _ in range(count)]
        clients = [testbed.add_client(p, f"attendee-{i}") for i, p in enumerate(profiles)]
        outcomes = [client.fetch("sc24.supercomputing.org") for client in clients]
        assert len(outcomes) == 50 and all(outcome.ok for outcome in outcomes)
        intervened = [
            client.profile
            for client, outcome in zip(clients, outcomes)
            if outcome.landed_on == "ip6.me"
        ]
        assert intervened == [NINTENDO_SWITCH] * 3
        assert testbed.census().accurate_ipv6_only_count() == 12 + 10 + 8
        assert testbed.dhcp_server.option_108_grants == 30
