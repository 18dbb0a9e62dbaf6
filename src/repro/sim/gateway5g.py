"""The 5G mobile internet gateway, quirks and all.

The paper's testbed uplink (§IV.A) had four limitations the design had
to work around, and this model reproduces each faithfully:

1. its RAs carry RDNSS values ``fd00:976a::9`` and ``fd00:976a::10`` —
   ULAs that are **not alive** — and "there were no options available to
   manipulate the RA" (figure 3);
2. "every reboot, the device would obtain a different /64 prefix" of
   GUA space (:meth:`MobileGateway5G.reboot`);
3. NAT64 with the well-known prefix ``64:ff9b::/96`` **works**;
4. "the built-in DHCPv4 server was not capable of defining option 108,
   and could not be disabled" — it always runs, always hands out plain
   IPv4 leases pointing at the carrier resolver.

It also performs NAT44 for legacy IPv4 clients (the mobile-carrier CGN
the paper's §II.B mentions).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro._compat import slotted_dataclass
from repro.dhcp.message import DHCP_CLIENT_PORT, DHCP_SERVER_PORT
from repro.dhcp.server import DhcpPool, DhcpServer
from repro.nd.ra import RaDaemon, RaDaemonConfig
from repro.net.addresses import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    MacAddress,
    WELL_KNOWN_NAT64_PREFIX,
)
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import RouterPreference
from repro.net.icmpv6 import decode_icmpv6, encode_icmpv6, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import encode_ipv4, IPProto
from repro.net.ipv6 import encode_ipv6
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.net.udp import encode_udp, UdpDatagram
from repro.sim.engine import EventEngine
from repro.sim.iface import ALL_NODES_V6, IPV4_BROADCAST, L2Interface
from repro.sim.node import Node, Port
from repro.xlat.nat44 import StatefulNat44
from repro.xlat.nat64 import Nat64Config, StatefulNAT64
from repro.xlat.siit import TranslationError

__all__ = ["Gateway5GConfig", "MobileGateway5G"]


@slotted_dataclass(frozen=True)
class Gateway5GConfig:
    """Knobs for the gateway model (defaults mirror the paper's device)."""

    lan_ipv4: IPv4Address = IPv4Address("192.168.12.1")
    lan_network: IPv4Network = IPv4Network("192.168.12.0/24")
    dhcp_pool_first: IPv4Address = IPv4Address("192.168.12.100")
    dhcp_pool_last: IPv4Address = IPv4Address("192.168.12.199")
    dhcp_lease_time: int = 3600
    #: The dead ULA resolvers the RA leaks (figure 3).
    dead_rdnss: Tuple[IPv6Address, ...] = (
        IPv6Address("fd00:976a::9"),
        IPv6Address("fd00:976a::10"),
    )
    #: GUA /64s handed out by the mobile operator, one per boot.
    gua_prefix_pool: Tuple[IPv6Network, ...] = tuple(
        IPv6Network(f"2607:fb90:9bda:a4{i:02x}::/64") for i in range(16)
    )
    carrier_dns_v4: IPv4Address = IPv4Address("203.0.113.53")
    wan_ipv4_nat44: IPv4Address = IPv4Address("100.66.0.1")
    wan_ipv4_nat64: IPv4Address = IPv4Address("100.66.0.2")
    wan_network: IPv4Network = IPv4Network("100.66.0.0/16")
    nat64_prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX
    ra_interval: float = 60.0
    ra_router_lifetime: int = 1800


class MobileGateway5G(Node):
    """The testbed's uplink device: LAN port + WAN (mobile network) port."""

    def __init__(
        self,
        engine: EventEngine,
        config: Optional[Gateway5GConfig] = None,
        name: str = "gateway5g",
    ) -> None:
        super().__init__(engine, name)
        self.config = config or Gateway5GConfig()
        self.reboots = 0

        lan_port = self.add_port("lan")
        wan_port = self.add_port("wan")
        self.lan_iface = L2Interface(engine, lan_port, MacAddress(0x02_50_00_00_00_01), is_router=True)
        self.wan_iface = L2Interface(engine, wan_port, MacAddress(0x02_50_00_00_00_02), is_router=True)
        self.lan_iface.add_ipv4(self.config.lan_ipv4, self.config.lan_network)
        self.lan_iface.add_ipv6(self._gateway_gua())
        self.wan_iface.add_ipv4(self.config.wan_ipv4_nat44, self.config.wan_network)
        self.wan_iface.add_ipv4(self.config.wan_ipv4_nat64, self.config.wan_network)
        self.wan_iface.on_link_everything = True
        self.wan_iface.proxy_nd_prefixes.append(self.gua_prefix)
        self.lan_iface.on_ipv4 = self._lan_ipv4
        self.lan_iface.on_ipv6 = self._lan_ipv6
        self.lan_iface.on_rs = lambda _rs, _src: self._emit_ra()
        self.wan_iface.on_ipv4 = self._wan_ipv4
        self.wan_iface.on_ipv6 = self._wan_ipv6

        # The un-disableable built-in DHCP server (no option 108 support).
        self.dhcp_server = DhcpServer(
            pool=DhcpPool(
                self.config.lan_network,
                self.config.dhcp_pool_first,
                self.config.dhcp_pool_last,
            ),
            server_id=self.config.lan_ipv4,
            clock=engine.clock,
            routers=[self.config.lan_ipv4],
            dns_servers=[self.config.carrier_dns_v4],
            lease_time=self.config.dhcp_lease_time,
            v6only_wait=None,
            name=f"{name}-builtin-dhcp",
        )
        self.nat44 = StatefulNat44(self.config.wan_ipv4_nat44, engine.clock)
        self.nat64 = StatefulNAT64(
            Nat64Config(prefix=self.config.nat64_prefix, pool=(self.config.wan_ipv4_nat64,)),
            engine.clock,
            name=f"{name}-nat64",
        )
        self._ra_daemon = RaDaemon(self._ra_config(), self.lan_iface.mac)
        engine.schedule_every(self.config.ra_interval, self._emit_ra)
        self.dropped_ula_uplink = 0

    # -- prefix rotation ------------------------------------------------------

    @property
    def gua_prefix(self) -> IPv6Network:
        pool = self.config.gua_prefix_pool
        return pool[self.reboots % len(pool)]

    def _gateway_gua(self) -> IPv6Address:
        return IPv6Address(int(self.gua_prefix.network_address) | 0x1)

    def reboot(self) -> IPv6Network:
        """Power-cycle: new GUA /64 from the operator, all state lost."""
        old_gua = self._gateway_gua()
        self.reboots += 1
        self.lan_iface.remove_ipv6(old_gua)
        self.lan_iface.add_ipv6(self._gateway_gua())
        self.wan_iface.proxy_nd_prefixes.clear()
        self.wan_iface.proxy_nd_prefixes.append(self.gua_prefix)
        self.lan_iface.v4_neighbors.clear()
        self.lan_iface.v6_neighbors.clear()
        self.wan_iface.v4_neighbors.clear()
        self.wan_iface.v6_neighbors.clear()
        self.nat44 = StatefulNat44(self.config.wan_ipv4_nat44, self.engine.clock)
        self.nat64 = StatefulNAT64(
            Nat64Config(prefix=self.config.nat64_prefix, pool=(self.config.wan_ipv4_nat64,)),
            self.engine.clock,
            name=f"{self.name}-nat64",
        )
        self.dhcp_server.leases.clear()
        self._ra_daemon = RaDaemon(self._ra_config(), self.lan_iface.mac)
        self._emit_ra()
        return self.gua_prefix

    # -- RA ---------------------------------------------------------------------

    def _ra_config(self) -> RaDaemonConfig:
        return RaDaemonConfig(
            prefixes=(self.gua_prefix,),
            rdnss=self.config.dead_rdnss,  # the figure-3 problem
            preference=RouterPreference.MEDIUM,
            router_lifetime=self.config.ra_router_lifetime,
            interval=self.config.ra_interval,
        )

    def _emit_ra(self) -> None:
        ra = self._ra_daemon.build_ra()
        source = self.lan_iface.link_local
        payload = encode_icmpv6(ra, source, ALL_NODES_V6)
        raw = encode_ipv6(source, ALL_NODES_V6, IPProto.ICMPV6, payload, hop_limit=255)
        self.lan_iface.send_ipv6_wire(raw, ALL_NODES_V6)

    # -- frame plumbing ------------------------------------------------------------

    def on_frame(self, port: Port, frame: bytes) -> None:
        if port.name == "lan":
            self.lan_iface.handle_frame(frame)
        else:
            self.wan_iface.handle_frame(frame)

    # -- LAN side ---------------------------------------------------------------

    def _lan_ipv4(self, packet: LazyIPv4Packet) -> None:
        # Built-in DHCP first: broadcast UDP to port 67.
        if packet.proto == IPProto.UDP:
            try:
                datagram = UdpDatagram.decode(packet.payload, packet.src, packet.dst)
            except ValueError:
                return
            if datagram.dst_port == DHCP_SERVER_PORT:
                reply = self.dhcp_server.handle_message(datagram.payload)
                if reply is not None:
                    src = self.config.lan_ipv4
                    out = encode_udp(src, IPV4_BROADCAST, DHCP_SERVER_PORT, DHCP_CLIENT_PORT, reply)
                    raw = encode_ipv4(src, IPV4_BROADCAST, IPProto.UDP, out)
                    self.lan_iface.send_ipv4_wire(raw, IPV4_BROADCAST)
                return
        if packet.dst == self.config.lan_ipv4:
            self._echo_v4(packet, via_lan=True)
            return
        if packet.dst == IPV4_BROADCAST or packet.dst in self.config.lan_network:
            return  # on-link chatter, not ours to forward
        if packet.src not in self.config.lan_network:
            return  # BCP38: only NAT traffic from our own pool
        try:
            translated = self.nat44.translate_out(packet.decremented())
        except (TranslationError, ValueError):
            return
        self.wan_iface.send_ipv4(translated)

    def _lan_ipv6(self, packet: LazyIPv6Packet) -> None:
        if packet.dst in self.lan_iface.ipv6_addresses:
            self._echo_v6(packet, via_lan=True)
            return
        if packet.dst.is_multicast:
            return
        if packet.dst in self.config.nat64_prefix:
            try:
                translated = self.nat64.translate_out(packet.decremented())
            except (TranslationError, ValueError):
                return
            self.wan_iface.send_ipv4(translated)
            return
        # Native IPv6 forwarding: only traffic sourced from the current
        # operator-assigned prefix may ride the mobile uplink.
        if packet.src not in self.gua_prefix:
            self.dropped_ula_uplink += 1
            return
        try:
            forwarded = packet.decremented()
        except ValueError:
            return
        self.wan_iface.send_ipv6(forwarded)

    # -- WAN side -----------------------------------------------------------------

    def _wan_ipv4(self, packet: LazyIPv4Packet) -> None:
        if packet.dst == self.config.wan_ipv4_nat64:
            try:
                translated = self.nat64.translate_in(packet)
            except (TranslationError, ValueError):
                return
            self.lan_iface.send_ipv6(translated)
            return
        if packet.dst == self.config.wan_ipv4_nat44:
            if packet.proto == IPProto.ICMP:
                try:
                    message = IcmpMessage.decode(packet.payload)
                except ValueError:
                    return
                if message.icmp_type == IcmpType.ECHO_REQUEST:
                    self._echo_v4(packet, via_lan=False)
                    return
            try:
                translated = self.nat44.translate_in(packet)
            except (TranslationError, ValueError):
                return
            self.lan_iface.send_ipv4(translated)

    def _wan_ipv6(self, packet: LazyIPv6Packet) -> None:
        if packet.dst in self.wan_iface.ipv6_addresses:
            self._echo_v6(packet, via_lan=False)
            return
        if packet.dst in self.gua_prefix:
            try:
                forwarded = packet.decremented()
            except ValueError:
                return
            self.lan_iface.send_ipv6(forwarded)

    # -- echo responders -----------------------------------------------------------

    def _echo_v4(self, packet: LazyIPv4Packet, via_lan: bool) -> None:
        if packet.proto != IPProto.ICMP:
            return
        try:
            message = IcmpMessage.decode(packet.payload)
        except ValueError:
            return
        if message.icmp_type != IcmpType.ECHO_REQUEST:
            return
        reply = IcmpMessage.echo_reply(message.echo_ident, message.echo_seq, message.body)
        raw = encode_ipv4(packet.dst, packet.src, IPProto.ICMP, reply.encode())
        iface = self.lan_iface if via_lan else self.wan_iface
        iface.send_ipv4_wire(raw, packet.src)

    def _echo_v6(self, packet: LazyIPv6Packet, via_lan: bool) -> None:
        if packet.next_header != IPProto.ICMPV6:
            return
        try:
            message = decode_icmpv6(packet.payload, packet.src, packet.dst)
        except ValueError:
            return
        if not isinstance(message, Icmpv6Message) or message.icmp_type != Icmpv6Type.ECHO_REQUEST:
            return
        reply = Icmpv6Message.echo_reply(message.echo_ident, message.echo_seq, message.body)
        payload = encode_icmpv6(reply, packet.dst, packet.src)
        raw = encode_ipv6(packet.dst, packet.src, IPProto.ICMPV6, payload)
        iface = self.lan_iface if via_lan else self.wan_iface
        iface.send_ipv6_wire(raw, packet.src)
