"""v6shift — a faithful, simulated reproduction of the SC 2024 paper
"Improving transition to IPv6-only via RFC8925 and IPv4 DNS Interventions".

The package implements, from scratch and in pure Python:

- byte-accurate wire formats for Ethernet, ARP, IPv4, IPv6, UDP, TCP,
  ICMP and ICMPv6/NDP (:mod:`repro.net`);
- the DNS the testbed serves, with name compression, A/AAAA/SOA zones,
  caching and a suffix-search-list-aware stub resolver (:mod:`repro.dns`);
- DHCPv4 with RFC 8925 option 108 support (:mod:`repro.dhcp`);
- IPv6 host configuration: SLAAC, RA/RDNSS processing and RFC 6724
  address selection (:mod:`repro.nd`);
- IPv4/IPv6 transition technology: SIIT (RFC 7915), stateful NAT64
  (RFC 6146), DNS64 (RFC 6147) and CLAT/464XLAT (RFC 6877)
  (:mod:`repro.xlat`);
- a deterministic discrete-event network simulator with switches,
  routers, a quirky 5G mobile gateway and full host network stacks
  (:mod:`repro.sim`);
- client operating-system behaviour profiles and applications
  (:mod:`repro.clients`) and simulated internet services including a
  test-ipv6.com mirror (:mod:`repro.services`);
- the paper's contribution: poisoned IPv4 DNS interventions, the RPZ
  alternative, intervention policy, scoring fixes, rollback playbooks and
  the one-call SC24v6 testbed (:mod:`repro.core`).

Quickstart::

    from repro.core.testbed import build_testbed, TestbedConfig
    from repro.clients.profiles import NINTENDO_SWITCH

    tb = build_testbed(TestbedConfig(poisoned_dns=True))
    host = tb.add_client(NINTENDO_SWITCH, "switch-1")
    tb.run_until_converged()
    report = tb.browse(host, "http://sc24.supercomputing.org/")
    assert report.landed_on == "ip6.me"        # the DNS intervention
"""

__version__ = "1.0.0"

__all__ = [
    "net",
    "dns",
    "dhcp",
    "nd",
    "xlat",
    "sim",
    "clients",
    "services",
    "core",
    "analysis",
]
