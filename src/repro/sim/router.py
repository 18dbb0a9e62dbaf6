"""A dual-stack router with static routes and simple ACLs.

Used for the Argonne internet-edge topology (paper figure 1) and as
the enforcement point in the figure-8 experiment ("implement an access
control list further blocking IPv4 internet access"): a deny rule drops
matching packets and, like a polite enterprise firewall, returns ICMP
administratively-prohibited to the source.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple, Union

from repro._compat import slotted_dataclass
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network, MacAddress
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import decode_icmpv6, encode_icmpv6, Icmpv6Message, Icmpv6Type
from repro.net.ipv4 import encode_ipv4, IPProto
from repro.net.ipv6 import encode_ipv6
from repro.net.lazy import LazyIPv4Packet, LazyIPv6Packet
from repro.sim.engine import EventEngine
from repro.sim.iface import L2Interface
from repro.sim.node import Node, Port

__all__ = ["Router", "AclRule"]

AnyNetwork = Union[IPv4Network, IPv6Network]


@slotted_dataclass()
class AclRule:
    """A deny rule: drop packets whose src and dst match the networks."""

    src: Optional[AnyNetwork] = None
    dst: Optional[AnyNetwork] = None
    is_ipv4: bool = True
    description: str = ""
    hits: int = 0

    def matches(self, src, dst) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True


class Router(Node):
    """A multi-interface router.  Interfaces are added with their
    addresses; routes are (prefix, interface, next-hop|None)."""

    def __init__(self, engine: EventEngine, name: str = "router") -> None:
        super().__init__(engine, name)
        self.ifaces: Dict[str, L2Interface] = {}
        self.routes_v4: List[Tuple[IPv4Network, str, Optional[IPv4Address]]] = []
        self.routes_v6: List[Tuple[IPv6Network, str, Optional[IPv6Address]]] = []
        self.acl: List[AclRule] = []
        self.forwarded_v4 = 0
        self.forwarded_v6 = 0
        self.acl_drops = 0
        self._mac_counter = 0x02_10_00_00_00_00 + (zlib.crc32(name.encode()) & 0xFFFF) * 256

    # -- topology construction --------------------------------------------------

    def add_interface(
        self,
        name: str,
        ipv4: Optional[Tuple[IPv4Address, IPv4Network]] = None,
        ipv6: Optional[Tuple[IPv6Address, IPv6Network]] = None,
        on_link_everything: bool = False,
    ) -> L2Interface:
        port = self.add_port(name)
        self._mac_counter += 1
        iface = L2Interface(self.engine, port, MacAddress(self._mac_counter), is_router=True)
        iface.on_link_everything = on_link_everything
        if ipv4 is not None:
            iface.add_ipv4(ipv4[0], ipv4[1])
            self.routes_v4.append((ipv4[1], name, None))
        if ipv6 is not None:
            iface.add_ipv6(ipv6[0], ipv6[1])
            self.routes_v6.append((ipv6[1], name, None))
        iface.on_ipv4 = lambda packet, _n=name: self._on_ipv4(_n, packet)
        iface.on_ipv6 = lambda packet, _n=name: self._on_ipv6(_n, packet)
        self.ifaces[name] = iface
        return iface

    def add_route_v4(self, prefix: IPv4Network, iface: str, next_hop: Optional[IPv4Address] = None) -> None:
        self.routes_v4.append((prefix, iface, next_hop))

    def add_route_v6(self, prefix: IPv6Network, iface: str, next_hop: Optional[IPv6Address] = None) -> None:
        self.routes_v6.append((prefix, iface, next_hop))

    # -- frame handling -----------------------------------------------------------

    def on_frame(self, port: Port, frame: bytes) -> None:
        iface = self.ifaces.get(port.name)
        if iface is not None:
            iface.handle_frame(frame)

    # -- forwarding ---------------------------------------------------------------

    def _on_ipv4(self, in_iface: str, packet: LazyIPv4Packet) -> None:
        local = any(packet.dst in i.ipv4_addresses for i in self.ifaces.values())
        if local:
            self._local_v4(packet)
            return
        for rule in self.acl:
            if rule.is_ipv4 and rule.matches(packet.src, packet.dst):
                rule.hits += 1
                self.acl_drops += 1
                self._send_admin_prohibited_v4(in_iface, packet)
                return
        route = self._best_route(self.routes_v4, packet.dst)
        if route is None:
            return
        _prefix, out_name, next_hop = route
        try:
            forwarded = packet.decremented()
        except ValueError:
            return
        self.forwarded_v4 += 1
        self.ifaces[out_name].send_ipv4(forwarded, next_hop)

    def _on_ipv6(self, in_iface: str, packet: LazyIPv6Packet) -> None:
        local = any(packet.dst in i.ipv6_addresses for i in self.ifaces.values())
        if local or packet.dst.is_multicast:
            self._local_v6(packet)
            return
        for rule in self.acl:
            if not rule.is_ipv4 and rule.matches(packet.src, packet.dst):
                rule.hits += 1
                self.acl_drops += 1
                return
        route = self._best_route(self.routes_v6, packet.dst)
        if route is None:
            return
        _prefix, out_name, next_hop = route
        try:
            forwarded = packet.decremented()
        except ValueError:
            return
        self.forwarded_v6 += 1
        self.ifaces[out_name].send_ipv6(forwarded, next_hop)

    @staticmethod
    def _best_route(routes, destination):
        best = None
        for prefix, iface, next_hop in routes:
            if destination in prefix:
                if best is None or prefix.prefixlen > best[0].prefixlen:
                    best = (prefix, iface, next_hop)
        return best

    # -- local delivery (ping responder only) -----------------------------------

    def _local_v4(self, packet: LazyIPv4Packet) -> None:
        if packet.proto != IPProto.ICMP:
            return
        try:
            message = IcmpMessage.decode(packet.payload)
        except ValueError:
            return
        if message.icmp_type != IcmpType.ECHO_REQUEST:
            return
        reply = IcmpMessage.echo_reply(message.echo_ident, message.echo_seq, message.body)
        self._route_and_send_v4(
            encode_ipv4(packet.dst, packet.src, IPProto.ICMP, reply.encode()), packet.src
        )

    def _local_v6(self, packet: LazyIPv6Packet) -> None:
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
        self._route_and_send_v6(
            encode_ipv6(packet.dst, packet.src, IPProto.ICMPV6, payload), packet.src
        )

    def _route_and_send_v4(self, raw: bytes, dst: IPv4Address) -> None:
        route = self._best_route(self.routes_v4, dst)
        if route is not None:
            self.ifaces[route[1]].send_ipv4_wire(raw, dst, route[2])

    def _route_and_send_v6(self, raw: bytes, dst: IPv6Address) -> None:
        route = self._best_route(self.routes_v6, dst)
        if route is not None:
            self.ifaces[route[1]].send_ipv6_wire(raw, dst, route[2])

    def _send_admin_prohibited_v4(self, in_iface: str, offending: LazyIPv4Packet) -> None:
        iface = self.ifaces[in_iface]
        src = iface.primary_ipv4()
        if src is None:
            return
        body = offending.encode()[:28]  # IP header + 8 bytes, per RFC 792
        message = IcmpMessage(IcmpType.DEST_UNREACHABLE, 13, 0, body)
        raw = encode_ipv4(src, offending.src, IPProto.ICMP, message.encode())
        self._route_and_send_v4(raw, offending.src)
