"""The client device driver: an OS profile applied to a simulated host.

:class:`ClientDevice` performs the full bring-up a real client does on
association — router solicitation, SLAAC, the DHCPv4 exchange (with
option 108 when the OS supports it, entering IPv6-only mode and starting
CLAT on a grant) — then assembles the OS's resolver configuration from
what the network taught it, honouring the profile's RDNSS-vs-DHCP
preference.

Its :meth:`fetch` implements the browser behaviour the paper's analysis
leans on: query AAAA and A, order candidates by RFC 6724, try them in
order.  :meth:`nslookup` reproduces the Windows suffix-happy lookup of
figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.clients.profiles import DnsOrder, OsProfile
from repro.dns.rdata import RRType
from repro.dns.resolver import (
    DnsTransportError,
    ResolutionResult,
    ResolverConfig,
    SearchOrder,
    StubResolver,
)
from repro.nd.addrsel import CandidateAddress, order_destinations
from repro.net.addresses import IPv4Address, IPv6Address
from repro.services.http import http_get, HttpResponse
from repro.sim.engine import EventEngine
from repro.sim.host import Host
from repro.sim.stack import StackConfig

__all__ = ["FetchOutcome", "ClientDevice"]

AnyAddress = Union[IPv4Address, IPv6Address]


@dataclass
class FetchOutcome:
    """What one browser-style fetch produced."""

    response: Optional[HttpResponse] = None
    address: Optional[AnyAddress] = None
    attempted: List[AnyAddress] = field(default_factory=list)
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.status == 200

    @property
    def landed_on(self) -> Optional[str]:
        if self.response is None:
            return None
        return self.response.headers.get("x-served-by")

    @property
    def family(self) -> Optional[str]:
        if self.address is None:
            return None
        return "ipv6" if isinstance(self.address, IPv6Address) else "ipv4"


class ClientDevice:
    """A host + OS profile + the derived resolver configuration."""

    def __init__(self, engine: EventEngine, name: str, profile: OsProfile) -> None:
        self.engine = engine
        self.name = name
        self.profile = profile
        self.host = Host(
            engine,
            name,
            config=StackConfig(
                ipv6_enabled=profile.ipv6_enabled,
                ipv4_enabled=profile.ipv4_enabled,
                accept_ras=profile.ipv6_enabled,
                clat_capable=profile.clat_capable,
            ),
        )
        self.resolver: Optional[StubResolver] = None
        self.dhcp_result = None
        self.manual_dns: Optional[List[AnyAddress]] = None

    # -- bring-up ------------------------------------------------------------

    def bring_up(self, settle: float = 0.5) -> None:
        """Associate: RS → SLAAC, DHCPv4, resolver assembly, and (for
        CLAT-capable stacks) RFC 7050 NAT64 prefix discovery."""
        if self.profile.ipv6_enabled:
            self.host.solicit_routers()
            self.engine.run_for(settle)
        if self.profile.ipv4_enabled:
            self.dhcp_result = self.host.run_dhcp(
                supports_option_108=self.profile.supports_option_108
            )
        self.rebuild_resolver()
        self._configure_clat_prefix()

    def _configure_clat_prefix(self) -> None:
        """Discover the NAT64 prefix via ipv4only.arpa (RFC 7050) and
        point the CLAT at it — required when the network uses a
        network-specific prefix instead of 64:ff9b::/96."""
        if self.host.clat is None or self.resolver is None:
            self.nat64_prefix_discovered = None
            return
        from dataclasses import replace as _replace

        from repro.xlat.prefix_discovery import discover_nat64_prefix

        discovered = discover_nat64_prefix(self.resolver)
        self.nat64_prefix_discovered = discovered
        if discovered is not None and discovered != self.host.clat.config.nat64_prefix:
            self.host.clat.config = _replace(
                self.host.clat.config, nat64_prefix=discovered
            )

    def disconnect(self) -> None:
        """Leave the network politely: DHCPRELEASE (freeing the pool
        address for the next attendee — §II's scarce-pool concern), then
        unplug."""
        config = self.host.ipv4_config
        if config is not None and self.dhcp_result is not None:
            from repro.dhcp.message import DhcpMessage
            from repro.dhcp.options import DhcpMessageType, DhcpOptionCode

            server_id = getattr(self.dhcp_result, "server_id", None)
            release = DhcpMessage(
                op=1,
                xid=next(self.host._xid) & 0xFFFFFFFF,
                chaddr=self.host.mac,
                ciaddr=config.address,
                options={
                    DhcpOptionCode.MESSAGE_TYPE: bytes([DhcpMessageType.RELEASE]),
                    **(
                        {DhcpOptionCode.SERVER_IDENTIFIER: server_id.packed}
                        if server_id is not None
                        else {}
                    ),
                },
            )
            # RELEASE is unicast to the server; broadcast reaches it too
            # and keeps the client free of server-address bookkeeping.
            from repro.sim.iface import IPV4_BROADCAST

            self.host.send_udp(68, IPV4_BROADCAST, 67, release.encode())
            self.engine.run_for(0.1)
        link = self.host.port("eth0")._link
        if link is not None:
            link.disconnect()
        self.host.deconfigure_ipv4()

    def wait_out_v6only(self) -> object:
        """Advance past V6ONLY_WAIT and re-run DHCP (RFC 8925 §3.2).

        After the removal playbook revokes option 108, clients regain
        IPv4 only once their wait expires — this driver runs that cycle.
        Returns the new DHCP result.
        """
        if self.host.v6only_wait is not None:
            self.engine.run_for(self.host.v6only_wait)
            self.host.v6only_wait = None
        self.dhcp_result = self.host.run_dhcp(
            supports_option_108=self.profile.supports_option_108
        )
        self.rebuild_resolver()
        self._configure_clat_prefix()
        return self.dhcp_result

    def set_manual_dns(self, servers: Sequence[AnyAddress]) -> None:
        """The figure-6 escape hatch: the user types in a known-good
        resolver, overriding everything the network provided."""
        self.manual_dns = list(servers)
        self.rebuild_resolver()

    def dns_server_order(self) -> List[AnyAddress]:
        """The resolver addresses this OS would consult, in order."""
        if self.manual_dns is not None:
            return list(self.manual_dns)
        rdnss: List[AnyAddress] = list(self.host.slaac.rdnss) if self.profile.ipv6_enabled else []
        dhcp: List[AnyAddress] = list(self.host.dhcp_dns_servers)
        order = self.profile.dns_order
        if order is DnsOrder.RDNSS_ONLY:
            return rdnss
        if order is DnsOrder.DHCP_ONLY:
            return dhcp
        if order is DnsOrder.DHCP_FIRST:
            return dhcp + rdnss
        return rdnss + dhcp

    def search_domains(self) -> List[str]:
        """The DHCP domain (option 15), the one search suffix a client
        learns: no testbed RA carries a DNSSL option."""
        if self.dhcp_result is not None and getattr(self.dhcp_result, "domain_name", None):
            return [self.dhcp_result.domain_name]
        return []

    def rebuild_resolver(self) -> StubResolver:
        config = ResolverConfig(
            servers=tuple(self.dns_server_order()),
            search_domains=tuple(self.search_domains()),
            search_order=self.profile.search_order,
        )
        self.resolver = StubResolver(
            config, self.host.dns_transport(), self.engine.clock
        )
        return self.resolver

    # -- name resolution -----------------------------------------------------

    def resolve_addresses(self, hostname: str) -> List[AnyAddress]:
        """getaddrinfo(): AAAA + A via the OS resolver, RFC 6724 ordered,
        filtered to families the device can actually source."""
        if self.resolver is None:
            self.rebuild_resolver()
        assert self.resolver is not None
        v6: List[IPv6Address] = []
        v4: List[IPv4Address] = []
        usable_v6 = self.profile.ipv6_enabled and bool(self.host.ipv6_global_addresses())
        usable_v4 = (
            self.profile.ipv4_enabled and self.host.ipv4_config is not None
        ) or (self.host.clat is not None and self.host.clat.enabled)
        try:
            if usable_v6:
                v6 = [
                    a
                    for a in self.resolver.resolve(hostname, RRType.AAAA).addresses()
                    if isinstance(a, IPv6Address)
                ]
            if usable_v4 or not v6:
                v4 = [
                    a
                    for a in self.resolver.resolve(hostname, RRType.A).addresses()
                    if isinstance(a, IPv4Address)
                ]
        except DnsTransportError:
            return []
        sources: List[AnyAddress] = list(self.host.all_addresses())
        if self.host.clat is not None and self.host.clat.enabled:
            sources.append(self.host.clat.config.clat_ipv4)
        candidates = [CandidateAddress(a, reachable=usable_v6) for a in v6]
        candidates += [CandidateAddress(a, reachable=usable_v4) for a in v4]
        if not candidates:
            return []
        return order_destinations(candidates, sources)

    def nslookup(self, hostname: str) -> ResolutionResult:
        """Windows nslookup behaviour: A query with eager suffix appending
        (figure 9's ``vpn.anl.gov`` → ``vpn.anl.gov.rfc8925.com``)."""
        if self.resolver is None:
            self.rebuild_resolver()
        assert self.resolver is not None
        if self.profile.nslookup_suffix_first:
            original = self.resolver.config
            from dataclasses import replace

            self.resolver.config = replace(
                original, search_order=SearchOrder.SUFFIX_FIRST, ndots=128
            )
            try:
                return self.resolver.resolve(hostname, RRType.A)
            finally:
                self.resolver.config = original
        return self.resolver.resolve(hostname, RRType.A)

    # -- browsing --------------------------------------------------------------

    def fetch(
        self,
        hostname: str,
        path: str = "/",
        port: int = 80,
        happy_eyeballs: bool = False,
    ) -> FetchOutcome:
        """Browser fetch: resolve, order, try candidates.

        ``happy_eyeballs=True`` races candidates with the RFC 8305
        staggered-start algorithm instead of trying them strictly
        sequentially — what a modern browser actually does.
        """
        addresses = self.resolve_addresses(hostname)
        if not addresses:
            return FetchOutcome(detail="name resolution failed")
        outcome = FetchOutcome(attempted=list(addresses))
        if happy_eyeballs:
            from repro.services.http import http_get_over
            from repro.clients.happy_eyeballs import happy_eyeballs_connect

            race = happy_eyeballs_connect(self.host, addresses, port)
            if race.ok:
                response = http_get_over(self.host, race.connection, hostname, path)
                if response is not None:
                    outcome.response = response
                    outcome.address = race.winner
                    outcome.detail = (
                        f"happy-eyeballs winner {race.winner} in {race.elapsed * 1000:.0f} ms"
                    )
                    return outcome
            outcome.detail = "happy-eyeballs race found no working candidate"
            return outcome
        for address in addresses:
            response = http_get(self.host, address, hostname, path, port)
            if response is not None:
                outcome.response = response
                outcome.address = address
                outcome.detail = f"connected to {address}"
                return outcome
        outcome.detail = f"all {len(addresses)} candidate addresses failed"
        return outcome

    def fetch_literal(
        self, address: AnyAddress, host_header: str, path: str = "/", port: int = 80
    ) -> FetchOutcome:
        """Fetch a bare IP literal (Echolink-style, no DNS involved)."""
        response = http_get(self.host, address, host_header, path, port)
        return FetchOutcome(
            response=response,
            address=address if response is not None else None,
            attempted=[address],
            detail="literal fetch",
        )

    def ping_name(self, hostname: str, timeout: float = 2.0) -> Optional[float]:
        """``ping <name>``: first getaddrinfo answer, then ICMP echo."""
        addresses = self.resolve_addresses(hostname)
        if not addresses:
            return None
        return self.host.ping(addresses[0], timeout=timeout)

    # -- classification helpers (metrics) ------------------------------------

    @property
    def is_ipv6_only(self) -> bool:
        return (
            self.host.ipv4_config is None
            and bool(self.host.ipv6_global_addresses())
        )

    def __repr__(self) -> str:
        return f"<ClientDevice {self.name} [{self.profile.name}]>"
