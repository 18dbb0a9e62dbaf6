"""The quickstart walk-through that ``python -m repro demo`` prints.

It builds the SC24v6 testbed, attaches three devices and shows the IPv4
DNS intervention at work.  ``examples/quickstart.py`` runs the same
function from a checkout.
"""

from __future__ import annotations

from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10
from repro.core.testbed import build_testbed, TestbedConfig
from repro.services.captive import connectivity_probe

__all__ = ["main"]


def main() -> None:
    # One call builds the paper's figure-4 topology: 5G gateway (with all
    # its quirks), managed switch (DHCP snooping + low-priority RA
    # workaround), the three Raspberry Pis, and the simulated internet.
    testbed = build_testbed(TestbedConfig(poisoned_dns=True))

    # A modern RFC 8925 device: gets option 108, drops IPv4, runs CLAT.
    mac = testbed.add_client(MACOS, "macbook")
    print(
        f"macbook: option-108 granted (V6ONLY_WAIT={mac.host.v6only_wait}s), "
        f"CLAT={'on' if mac.host.clat else 'off'}"
    )
    outcome = mac.fetch("sc24.supercomputing.org")
    print(
        f"macbook browses sc24.supercomputing.org -> {outcome.landed_on} "
        f"via {outcome.address} ({outcome.family})"
    )

    # A dual-stack laptop: prefers the RDNSS resolver, never sees poison.
    w10 = testbed.add_client(WINDOWS_10, "laptop")
    outcome = w10.fetch("sc24.supercomputing.org")
    print(
        f"laptop  browses sc24.supercomputing.org -> {outcome.landed_on} "
        f"({outcome.family}); poisoned answers served so far: "
        f"{testbed.poisoner.poison_answers}"
    )

    # An IPv4-only device: every browse lands on the explanation page.
    switch = testbed.add_client(NINTENDO_SWITCH, "game-console")
    probe = connectivity_probe(switch)
    outcome = switch.fetch("sc24.supercomputing.org")
    print(f"console OS probe says: {probe.outcome.value}")
    print(
        f"console browses sc24.supercomputing.org -> {outcome.landed_on} "
        f"({outcome.family})  <-- the IPv4 DNS intervention"
    )
    print()
    print(outcome.response.body.decode())

    # The operator's view: who is really IPv6-only?
    print(testbed.census().table())
