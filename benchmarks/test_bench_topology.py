"""E4 (figure 4): the SC24v6 testbed build + convergence."""

from repro.clients.profiles import LINUX, MACOS, NINTENDO_SWITCH
from repro.core.testbed import build_testbed, TestbedConfig

from benchmarks.conftest import report


def run_fig4_testbed():
    testbed = build_testbed(TestbedConfig())
    mac = testbed.add_client(MACOS, "mac")
    lin = testbed.add_client(LINUX, "lin")
    nsw = testbed.add_client(NINTENDO_SWITCH, "nsw")
    return testbed, mac, lin, nsw


def test_fig4_testbed(benchmark):
    testbed, mac, lin, nsw = benchmark(run_fig4_testbed)
    rows = [
        f"{c.name:5s} profile={c.profile.name:16s} v4={c.host.ipv4_config is not None!s:5s} "
        f"opt108={c.host.v6only_wait is not None!s:5s} "
        f"v6addrs={len(c.host.ipv6_global_addresses())}"
        for c in (mac, lin, nsw)
    ]
    report("E4 / Figure 4 — testbed topology convergence", rows)
    assert mac.host.v6only_wait is not None
    assert lin.host.ipv4_config is not None and len(lin.host.ipv6_global_addresses()) == 2
    assert nsw.host.ipv4_config is not None and not nsw.host.ipv6_global_addresses()
    assert testbed.switch.snooper.dropped > 0  # the gateway pool is being blocked
