"""The enhanced-mirror advisor (paper §VII future work)."""


from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10, WINDOWS_10_V6_DISABLED
from repro.core.advisor import advise
from repro.core.scoring import score_rfc8925_aware
from repro.services.testipv6 import run_test_ipv6


def run_for(testbed, profile, name):
    client = testbed.add_client(profile, name)
    report = run_test_ipv6(client, testbed.mirror)
    score = score_rfc8925_aware(report, testbed.scoring_context())
    return advise(report, score)


class TestAdvisor:
    def test_rfc8925_device_gets_no_advice(self, testbed):
        advisory = run_for(testbed, MACOS, "mac")
        assert not advisory.advice
        assert "No action needed" in advisory.render()

    def test_dual_stack_gets_rfc8925_nudge_only(self, testbed):
        advisory = run_for(testbed, WINDOWS_10, "w10")
        assert len(advisory.advice) == 1
        assert "RFC 8925" in advisory.advice[0].title
        assert advisory.advice[0].severity == 4

    def test_v4_only_device_told_it_lacks_ipv6(self, testbed):
        advisory = run_for(testbed, NINTENDO_SWITCH, "switch")
        titles = [a.title for a in advisory.advice]
        assert any("no IPv6 connectivity" in t for t in titles)
        top = min(advisory.advice, key=lambda a: a.severity)
        assert "helpdesk" in top.detail

    def test_fig5_client_warned_about_misleading_result(self, testbed_fig5):
        """The poisoned-toward-mirror case: 'IPv6' pages loaded over v4."""
        advisory = run_for(testbed_fig5, WINDOWS_10_V6_DISABLED, "w10-nov6")
        titles = [a.title for a in advisory.advice]
        assert any("misleading" in t for t in titles)

    def test_dead_resolver_advice(self, testbed):
        testbed.pi_healthy.port("eth0")._link.disconnect()
        advisory = run_for(testbed, NINTENDO_SWITCH, "switch")
        # Only the AAAA service died: the switch still reaches ip6.me
        # through the poison, so expect the no-IPv6 advice plus the
        # resolver warning.
        assert [a.title for a in advisory.advice] == [
            "This device has no IPv6 connectivity",
            "Resolver cannot answer AAAA queries",
        ]

    def test_render_is_ordered_by_severity(self, testbed):
        advisory = run_for(testbed, NINTENDO_SWITCH, "switch")
        rendered = advisory.render()
        positions = [rendered.find(f"[{a.severity}]") for a in sorted(advisory.advice, key=lambda x: x.severity)]
        assert positions == sorted(positions)
