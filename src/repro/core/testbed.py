"""The figure-4 testbed, buildable in one call.

Topology (paper §IV.A, figure 4)::

    [simulated internet exchange]
      ├── ip6.me (23.153.8.71 / 2001:4810:0:3::71)
      ├── test-ipv6.com mirror (dual-stack)
      ├── sc24.supercomputing.org (IPv4-only)
      ├── vpn.anl.gov (IPv4-only), VTC provider (IPv4-only)
      ├── VPN concentrator, connectivity-probe host
      ├── carrier DNS resolver (203.0.113.53)
      │
    [5G mobile gateway]  ← quirky RA (dead ULA RDNSS), rotating GUA /64,
      │                    un-disableable DHCP, NAT44 + NAT64 (64:ff9b::/96)
    [managed switch]     ← DHCPv4 snooping blocks the gateway pool,
      │                    low-priority RA for fd00:976a::/64 + healthy RDNSS
      ├── Pi #1  192.168.12.251 / fd00:976a::9   — healthy BIND9 DNS64
      ├── Pi #2  192.168.12.252 / fd00:976a::c   — poisoned dnsmasq (or RPZ)
      ├── Pi #3  192.168.12.250                  — DHCP server (option 108,
      │                                            policy-driven resolver)
      └── client devices (added per experiment)

Every box is the real component from this library — the DHCP exchange,
RA processing, DNS queries, NAT translations and HTTP fetches all run
over simulated Ethernet frames.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro._compat import slotted_dataclass
from repro.clients.device import ClientDevice, FetchOutcome
from repro.clients.profiles import OsProfile
from repro.core.intervention import InterventionConfig, PoisonedDNSServer
from repro.core.metrics import ClientCensus
from repro.core.policy import InterventionPolicy, PolicyDhcpServer
from repro.core.rollback import Playbook
from repro.core.rpz import RpzConfig, RPZPolicyServer
from repro.core.scoring import ScoringContext
from repro.dhcp.server import DhcpPool
from repro.dns.server import DnsServer
from repro.dns.zone import Zone
from repro.nd.ra import RaDaemonConfig
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from repro.net.icmpv6 import RouterPreference
from repro.services.captive import PROBE_BODY, PROBE_HOST, PROBE_PATH
from repro.services.http import HttpRequest, HttpResponse
from repro.services.ip6me import IP6ME_V4, IP6ME_V6, Ip6MeService
from repro.services.testipv6 import TestIpv6Mirror
from repro.services.web import WebService
from repro.sim.engine import EventEngine
from repro.sim.gateway5g import Gateway5GConfig, MobileGateway5G
from repro.sim.host import ServerHost
from repro.sim.node import connect
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace
from repro.xlat.dns64 import DNS64Resolver

__all__ = ["TestbedConfig", "Testbed", "build_testbed"]

AnyAddress = Union[IPv4Address, IPv6Address]

# Well-known testbed addresses (paper figures 3, 4, 9, 10).
PI_HEALTHY_V4 = IPv4Address("192.168.12.251")
PI_HEALTHY_V6 = IPv6Address("fd00:976a::9")
PI_POISON_V4 = IPv4Address("192.168.12.252")
PI_DHCP_V4 = IPv4Address("192.168.12.250")
LAN_NETWORK = IPv4Network("192.168.12.0/24")
#: The Pi DHCP server's pool: what bounds the testbed's IPv4 leases.
PI_POOL_FIRST = IPv4Address("192.168.12.50")
PI_POOL_LAST = IPv4Address("192.168.12.99")
PI_POOL_SIZE = DhcpPool(LAN_NETWORK, PI_POOL_FIRST, PI_POOL_LAST).size
ULA_PREFIX = IPv6Network("fd00:976a::/64")
SC24_WEB_V4 = IPv4Address("190.92.158.4")  # 64:ff9b::be5c:9e04 in figure 7
VPN_ANL_V4 = IPv4Address("130.202.228.253")  # 64:ff9b::82ca:e4fd in figure 10
VTC_V4 = IPv4Address("198.51.100.40")
CONCENTRATOR_V4 = IPv4Address("198.51.100.10")
CARRIER_DNS_V4 = IPv4Address("203.0.113.53")
PROBE_V4 = IPv4Address("203.0.113.80")
PROBE_V6 = IPv6Address("2001:db8:80::80")


@slotted_dataclass()
class TestbedConfig:
    """Build-time switches for the testbed.

    Sweeps copy an instance per shard with :func:`dataclasses.replace`
    (only the seed changes), so keep every field a value type.
    """

    __test__ = False  # not a pytest class, despite the name

    seed: int = 2024
    #: Deploy the poisoned resolver and point DHCP's DNS at it.
    poisoned_dns: bool = True
    #: Where the poison points: "ip6.me" (final design) or
    #: "test-ipv6.com" (the first iteration that caused figure 5).
    poison_target: str = "ip6.me"
    #: Use the BIND9-RPZ-style rewriter instead of dnsmasq-style poison.
    use_rpz: bool = False
    #: Block the gateway's built-in DHCP pool at the switch.
    dhcp_snooping: bool = True
    #: Run the managed switch's low-priority RA (the RDNSS workaround).
    switch_ra: bool = True
    #: Offer option 108 from the Pi DHCP server.
    option_108: bool = True
    v6only_wait: int = 300
    domain: str = "rfc8925.com"
    capture_traffic: bool = False
    #: The NAT64 translation prefix (the gateway's and the DNS64's).
    #: Defaults to the well-known 64:ff9b::/96; set a network-specific
    #: prefix to exercise RFC 7050 discovery, without which CLATs would
    #: translate into the void.
    nat64_prefix: IPv6Network = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.nat64_prefix is None:
            from repro.net.addresses import WELL_KNOWN_NAT64_PREFIX

            object.__setattr__(self, "nat64_prefix", WELL_KNOWN_NAT64_PREFIX)


class Testbed:
    """The live testbed: topology + services + client management."""

    __test__ = False  # not a pytest class, despite the name

    # Topology members, assigned once during _build(); declared here so
    # the attribute set is closed at class creation.
    inet: ManagedSwitch
    gateway: MobileGateway5G
    switch: ManagedSwitch
    zones: List[Zone]
    ip6me: Ip6MeService
    mirror: TestIpv6Mirror
    sc24_web: WebService
    vtc: WebService
    probe_host: WebService
    vpn_anl: ServerHost
    concentrator: ServerHost
    carrier_dns_server: DnsServer
    carrier_dns: ServerHost
    pi_healthy: ServerHost
    dns64: DNS64Resolver
    pi_poison: ServerHost
    poisoner: Union[PoisonedDNSServer, RPZPolicyServer]
    policy: InterventionPolicy
    pi_dhcp: ServerHost
    dhcp_server: PolicyDhcpServer

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.engine = EventEngine(seed=config.seed)
        self.trace: Optional[PacketTrace] = (
            PacketTrace(self.engine.clock) if config.capture_traffic else None
        )
        self.clients: List[ClientDevice] = []
        self._client_ports = 0
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        engine = self.engine
        self.inet = ManagedSwitch(engine, "internet-exchange")
        self.gateway = MobileGateway5G(
            engine,
            Gateway5GConfig(nat64_prefix=self.config.nat64_prefix),
            name="gateway5g",
        )
        connect(engine, self.gateway.port("wan"), self.inet.add_port("p-gateway"))

        self.switch = ManagedSwitch(engine, "managed-switch")
        connect(engine, self.gateway.port("lan"), self.switch.add_port("p-gateway"))

        self._build_zones()
        self._build_internet_services()
        self._build_pis()
        self._configure_switch()
        if self.trace is not None:
            for node in (self.gateway, self.switch, self.pi_healthy, self.pi_poison, self.pi_dhcp):
                node.attach_trace(self.trace)
        # Let periodic RAs and ARP chatter settle.
        engine.run_for(1.0)

    def _build_zones(self) -> None:
        """Authoritative data for the simulated internet."""
        z_sc = Zone("supercomputing.org").add_a("sc24.supercomputing.org", SC24_WEB_V4)
        z_ip6me = (
            Zone("ip6.me").add_a("ip6.me", IP6ME_V4).add_aaaa("ip6.me", IP6ME_V6)
        )
        z_mirror = Zone("test-ipv6.com")
        z_mirror.add_a("test-ipv6.com", "216.218.228.115")
        z_mirror.add_aaaa("test-ipv6.com", "2001:470:1:18::115")
        z_mirror.add_a("ipv4.test-ipv6.com", "216.218.228.115")
        z_mirror.add_aaaa("ipv6.test-ipv6.com", "2001:470:1:18::115")
        z_anl = Zone("anl.gov").add_a("vpn.anl.gov", VPN_ANL_V4)
        z_probe = (
            Zone("example.net")
            .add_a(PROBE_HOST, PROBE_V4)
            .add_aaaa(PROBE_HOST, PROBE_V6)
        )
        z_vtc = Zone("example.com").add_a("vtc.example.com", VTC_V4)
        z_arpa = (
            Zone("ipv4only.arpa")
            .add_a("ipv4only.arpa", "192.0.0.170")
            .add_a("ipv4only.arpa", "192.0.0.171")
        )
        z_local = Zone(self.config.domain)
        z_local.add_a(f"dns.{self.config.domain}", PI_HEALTHY_V4)
        z_local.add_aaaa(f"dns.{self.config.domain}", PI_HEALTHY_V6)
        self.zones = [z_sc, z_ip6me, z_mirror, z_anl, z_probe, z_vtc, z_arpa, z_local]

    def _build_internet_services(self) -> None:
        engine = self.engine

        def attach(host: ServerHost, port_name: str) -> None:
            connect(engine, host.port("eth0"), self.inet.add_port(port_name))

        self.ip6me = Ip6MeService(engine)
        attach(self.ip6me, "p-ip6me")

        self.mirror = TestIpv6Mirror(engine)
        attach(self.mirror, "p-mirror")

        self.sc24_web = WebService(engine, "sc24-web", ipv4=SC24_WEB_V4)
        self.sc24_web.add_site("sc24.supercomputing.org")
        attach(self.sc24_web, "p-sc24")

        self.vtc = WebService(engine, "vtc", ipv4=VTC_V4)
        self.vtc.add_site("vtc.example.com")
        attach(self.vtc, "p-vtc")

        self.probe_host = WebService(engine, "probe", ipv4=PROBE_V4, ipv6=PROBE_V6)

        def probe_handler(request: HttpRequest) -> HttpResponse:
            if request.path == PROBE_PATH:
                return HttpResponse(
                    200, {"x-served-by": PROBE_HOST, "content-type": "text/plain"}, PROBE_BODY
                )
            return HttpResponse(404, {"x-served-by": PROBE_HOST}, b"")

        self.probe_host.add_site(PROBE_HOST, probe_handler)
        attach(self.probe_host, "p-probe")

        # vpn.anl.gov answers pings (figure 9/10) — a bare ServerHost.
        self.vpn_anl = ServerHost(
            engine, "vpn-anl", ipv4=VPN_ANL_V4, on_link_everything=True
        )
        attach(self.vpn_anl, "p-vpn-anl")

        self.concentrator = ServerHost(
            engine, "vpn-concentrator", ipv4=CONCENTRATOR_V4, on_link_everything=True
        )
        self.concentrator.tcp_listen(443, lambda conn: None)  # accepts tunnels
        attach(self.concentrator, "p-concentrator")

        # The carrier's plain resolver (no DNS64) — what the gateway's
        # built-in DHCP hands out.
        self.carrier_dns_server = DnsServer(self.zones, name="carrier-dns")
        self.carrier_dns = ServerHost(
            engine, "carrier-dns", ipv4=CARRIER_DNS_V4, on_link_everything=True
        )
        self.carrier_dns.udp_serve(
            53, lambda payload, src, sport: self.carrier_dns_server.handle_query(payload, client=src)
        )
        attach(self.carrier_dns, "p-carrier-dns")

    def _build_pis(self) -> None:
        engine = self.engine

        # Pi #1: the healthy BIND9 DNS64 (192.168.12.251 / fd00:976a::9).
        self.pi_healthy = ServerHost(
            engine,
            "pi-healthy-dns64",
            ipv4=PI_HEALTHY_V4,
            ipv4_network=LAN_NETWORK,
            ipv4_gateway=self.gateway.config.lan_ipv4,
        )
        self.pi_healthy.add_static_ipv6(PI_HEALTHY_V6, ULA_PREFIX)
        self.dns64 = DNS64Resolver(
            self.zones, prefix=self.config.nat64_prefix, name="healthy-dns64"
        )
        self.pi_healthy.udp_serve(
            53, lambda payload, src, sport: self.dns64.handle_query(payload, client=src)
        )
        connect(engine, self.pi_healthy.port("eth0"), self.switch.add_port("p-pi-healthy"))

        # Pi #2: the poisoned resolver (or its RPZ replacement).
        self.pi_poison = ServerHost(
            engine,
            "pi-poisoned-dns",
            ipv4=PI_POISON_V4,
            ipv4_network=LAN_NETWORK,
            ipv4_gateway=self.gateway.config.lan_ipv4,
        )
        self.pi_poison.add_static_ipv6(IPv6Address("fd00:976a::c"), ULA_PREFIX)
        poison_address = IP6ME_V4 if self.config.poison_target == "ip6.me" else self.mirror.mirror_v4

        def upstream(wire: bytes) -> Optional[bytes]:
            # A real forward across the LAN to the healthy DNS64 —
            # visible in packet captures, like dnsmasq's server= line.
            return self.pi_poison.udp_exchange(PI_HEALTHY_V4, 53, wire, timeout=1.0)

        if self.config.use_rpz:
            self.poisoner = RPZPolicyServer(
                RpzConfig(poison_address=poison_address), upstream
            )
        else:
            self.poisoner = PoisonedDNSServer(
                InterventionConfig(poison_address=poison_address), upstream
            )
        self.pi_poison.udp_serve(
            53, lambda payload, src, sport: self.poisoner.handle_query(payload, client=src)
        )
        connect(engine, self.pi_poison.port("eth0"), self.switch.add_port("p-pi-poison"))

        # Pi #3: the DHCP server with option 108 and the policy-driven
        # resolver assignment.
        self.policy = InterventionPolicy(
            poisoned_dns=(PI_POISON_V4,),
            healthy_dns=(PI_HEALTHY_V4,),
            intervention_enabled=self.config.poisoned_dns,
            offer_option_108=self.config.option_108,
        )
        self.pi_dhcp = ServerHost(
            engine,
            "pi-dhcp",
            ipv4=PI_DHCP_V4,
            ipv4_network=LAN_NETWORK,
            ipv4_gateway=self.gateway.config.lan_ipv4,
        )
        self.dhcp_server = PolicyDhcpServer(
            self.policy,
            pool=DhcpPool(LAN_NETWORK, PI_POOL_FIRST, PI_POOL_LAST),
            server_id=PI_DHCP_V4,
            clock=engine.clock,
            routers=[self.gateway.config.lan_ipv4],
            dns_servers=[PI_POISON_V4 if self.config.poisoned_dns else PI_HEALTHY_V4],
            domain_name=self.config.domain,
            v6only_wait=self.config.v6only_wait if self.config.option_108 else None,
            name="pi-dhcp-server",
        )
        self.pi_dhcp.udp_serve(67, self._dhcp_handler)
        connect(engine, self.pi_dhcp.port("eth0"), self.switch.add_port("p-pi-dhcp"))

    def _dhcp_handler(
        self, payload: bytes, src: object, sport: int
    ) -> Optional[Tuple[IPv4Address, int, bytes]]:
        reply = self.dhcp_server.handle_message(payload)
        if reply is None:
            return None
        from repro.sim.iface import IPV4_BROADCAST

        return (IPV4_BROADCAST, 68, reply)

    def _configure_switch(self) -> None:
        if self.config.dhcp_snooping:
            self.switch.snooper.enabled = True
            self.switch.snooper.trust("p-pi-dhcp")
        if self.config.switch_ra:
            self.switch.enable_ra_daemon(
                RaDaemonConfig(
                    prefixes=(ULA_PREFIX,),
                    rdnss=(PI_HEALTHY_V6,),
                    preference=RouterPreference.LOW,
                    # Not a default router — just prefix + RDNSS delivery.
                    router_lifetime=0,
                    interval=30.0,
                )
            )

    # ------------------------------------------------------------------
    # client management
    # ------------------------------------------------------------------

    def add_client(
        self, profile: OsProfile, name: str, bring_up: bool = True
    ) -> ClientDevice:
        """Attach a new client device to the testbed switch."""
        client = ClientDevice(self.engine, name, profile)
        self._client_ports += 1
        connect(
            self.engine,
            client.host.port("eth0"),
            self.switch.add_port(f"p-client-{self._client_ports}"),
        )
        if self.trace is not None:
            client.host.attach_trace(self.trace)
        if bring_up:
            client.bring_up()
        self.clients.append(client)
        return client

    def run_for(self, duration: float) -> None:
        self.engine.run_for(duration)

    # ------------------------------------------------------------------
    # experiment conveniences
    # ------------------------------------------------------------------

    def browse(self, client: ClientDevice, url: str) -> FetchOutcome:
        """Fetch ``http://host/path`` as the client's browser would."""
        stripped = url.split("://", 1)[-1]
        host, _slash, path = stripped.partition("/")
        return client.fetch(host, "/" + path)

    def scoring_context(self) -> ScoringContext:
        """What the SC24 mirror would know: the NAT64 egress range."""
        return ScoringContext(
            nat64_egress=(
                IPv4Network(f"{self.gateway.config.wan_ipv4_nat64}/32"),
            )
        )

    def census(self) -> ClientCensus:
        """Classify every attached client from observable state."""
        census = ClientCensus()
        for client in self.clients:
            host = client.host
            census.observe(
                name=client.name,
                mac=host.mac,
                has_v4_lease=host.ipv4_config is not None,
                granted_v6only=host.v6only_wait is not None,
                has_v6_address=bool(host.ipv6_global_addresses()),
                sent_v4_flows=host.iface.tx_ipv4_unicast > 0,
                sent_v6_flows=host.iface.tx_ipv6_unicast > 0,
            )
        return census

    # ------------------------------------------------------------------
    # the deployment / removal playbooks (paper §VII)
    # ------------------------------------------------------------------

    def deploy_intervention_playbook(self) -> Playbook:
        """Turn the intervention ON: point DHCP's resolver at the
        poisoned server and enable it in policy."""
        playbook = Playbook("deploy-ipv4-dns-intervention")
        saved: Dict[str, object] = {}

        def repoint() -> None:
            saved["dns"] = list(self.dhcp_server.dns_servers)
            self.dhcp_server.set_dns_servers([PI_POISON_V4])

        def unpoint() -> None:
            self.dhcp_server.set_dns_servers(list(saved.get("dns", [PI_HEALTHY_V4])))

        def enable() -> None:
            saved["enabled"] = self.policy.intervention_enabled
            self.policy.intervention_enabled = True

        def disable() -> None:
            self.policy.intervention_enabled = bool(saved.get("enabled", False))

        playbook.add(
            "point DHCP resolver at poisoned DNS",
            repoint,
            unpoint,
            check=lambda: self.dhcp_server.dns_servers == [PI_POISON_V4],
        )
        playbook.add(
            "enable intervention in AAA policy",
            enable,
            disable,
            check=lambda: self.policy.intervention_enabled,
        )
        return playbook

    def remove_intervention_playbook(self) -> Playbook:
        """The §VII rollback: remove the intervention if issues arise."""
        playbook = Playbook("remove-ipv4-dns-intervention")
        saved: Dict[str, object] = {}

        def repoint() -> None:
            saved["dns"] = list(self.dhcp_server.dns_servers)
            self.dhcp_server.set_dns_servers([PI_HEALTHY_V4])

        def unpoint() -> None:
            self.dhcp_server.set_dns_servers(list(saved.get("dns", [PI_POISON_V4])))

        def disable() -> None:
            saved["enabled"] = self.policy.intervention_enabled
            self.policy.intervention_enabled = False

        def enable() -> None:
            self.policy.intervention_enabled = bool(saved.get("enabled", True))

        playbook.add(
            "point DHCP resolver at healthy DNS64",
            repoint,
            unpoint,
            check=lambda: self.dhcp_server.dns_servers == [PI_HEALTHY_V4],
        )
        playbook.add(
            "disable intervention in AAA policy",
            disable,
            enable,
            check=lambda: not self.policy.intervention_enabled,
        )
        return playbook


def build_testbed(config: Optional[TestbedConfig] = None) -> Testbed:
    """Construct the full figure-4 testbed."""
    return Testbed(config or TestbedConfig())
