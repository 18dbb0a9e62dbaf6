"""The L2/L3 interface machinery shared by every IP-speaking node.

:class:`L2Interface` owns a port's MAC, the node's addresses on that
link, the ARP and NDP neighbor caches and the pending-packet queues
used while resolution is in flight.  Hosts, routers and the 5G gateway
all embed one per port, so neighbor behaviour (gleaning, solicited
replies, queue flush on resolution) is identical everywhere — as it is
across real stacks — except that a host never sees an IPv4 broadcast
to a UDP port it has no socket on, so never gleans from one.

The interface keeps its NIC receive filter's state (the accepted
destination MACs, the host's bound UDP ports, the proxy-NDP prefixes)
and hands it, live, to its port (:meth:`~repro.sim.node.Port.keeps`).
The port runs the filter, so a frame the interface would drop never
reaches :meth:`L2Interface.handle_frame`, and a flood's rejected copies
cost no call at all (:func:`repro.sim.link.flood`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Set

from repro.net.addresses import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    link_local_from_mac,
    MAC_BROADCAST,
    MacAddress,
    multicast_mac_for_ipv6,
    solicited_node_multicast,
)
from repro.net.arp import ArpOp, ArpPacket
from repro.net.ethernet import EtherType
from repro.net.icmpv6 import (
    encode_icmpv6,
    NeighborAdvertisement,
    NeighborSolicitation,
    RouterAdvertisement,
    RouterSolicitation,
)
from repro.net.ipv4 import IPProto
from repro.net.ipv6 import encode_ipv6
from repro.net.lazy import (
    decode_ipv4_cached,
    decode_ipv6_cached,
    LazyIPv4Packet,
    LazyIPv6Packet,
)
from repro.sim.engine import EventEngine
from repro.sim.link import SOLICITED_PREFIX
from repro.sim.node import Port

__all__ = ["L2Interface"]

IPV4_BROADCAST = IPv4Address("255.255.255.255")
ALL_NODES_V6 = IPv6Address("ff02::1")
ALL_ROUTERS_V6 = IPv6Address("ff02::2")
UNSPECIFIED_V4 = IPv4Address("0.0.0.0")
UNSPECIFIED_V6 = IPv6Address("::")

#: How long to keep a packet queued awaiting neighbor resolution.
RESOLUTION_TIMEOUT = 3.0

# Plain ints for the per-frame dispatch (IntEnum __eq__ is measurably
# slower on the hot path).
_ETHERTYPE_ARP = int(EtherType.ARP)
_ETHERTYPE_IPV4 = int(EtherType.IPV4)
_ETHERTYPE_IPV6 = int(EtherType.IPV6)
_IPPROTO_ICMPV6 = int(IPProto.ICMPV6)

# Pre-encoded EtherType wire bytes, keyed by int (IntEnum keys hash the
# same), for the zero-object frame build in _send_frame.
_ETHERTYPE_WIRE = {int(et): int(et).to_bytes(2, "big") for et in EtherType}


@lru_cache(maxsize=None)
def _mac_wire(mac: MacAddress) -> bytes:
    """``mac.to_bytes()``, memoized — the destination-MAC population of
    a simulation is bounded by its host count."""
    return mac.to_bytes()


_BROADCAST_WIRE = MAC_BROADCAST.to_bytes()
_ALL_NODES_WIRE = multicast_mac_for_ipv6(ALL_NODES_V6).to_bytes()
_ALL_ROUTERS_WIRE = multicast_mac_for_ipv6(ALL_ROUTERS_V6).to_bytes()


def _solicited_wire(address: IPv6Address) -> bytes:
    """The destination MAC of ``address``'s solicited-node group:
    33:33:ff and the address's low 24 bits.  Built directly rather than
    through the memoized address helpers, whose caches would keep three
    objects per group."""
    return SOLICITED_PREFIX + (int(address) & 0xFFFFFF).to_bytes(3, "big")


@lru_cache(maxsize=None)
def _mac_from_wire(raw: bytes) -> MacAddress:
    """The inverse of :func:`_mac_wire`, memoized for the same reason:
    source MACs on a link repeat constantly."""
    return MacAddress(int.from_bytes(raw, "big"))


class L2Interface:
    """One attachment of a node to a link, with full neighbor handling.

    The owner registers callbacks:

    - ``on_ipv4(packet)`` / ``on_ipv6(packet)`` — a unicast/broadcast IP
      packet addressed *through* this interface arrived (the owner
      decides local-delivery vs forwarding);
    - ``on_ra(ra, source)`` — a Router Advertisement arrived (hosts feed
      SLAAC; routers ignore).

    A host passes its bound UDP ports as ``udp_ports`` (its live socket
    table, shared, not copied), and its port then drops an IPv4
    broadcast to any other UDP port straight off the header.  Router
    and gateway interfaces pass none and keep every such frame: the
    gateway's DHCP server listens on port 67 without a socket.
    """

    def __init__(
        self,
        engine: EventEngine,
        port: Port,
        mac: MacAddress,
        is_router: bool = False,
        udp_ports: Optional[Mapping[int, object]] = None,
    ) -> None:
        self.engine = engine
        self.port = port
        self.mac = mac
        self._mac_bytes = mac.to_bytes()
        self.is_router = is_router
        self.link_local = link_local_from_mac(mac)
        self.ipv4_addresses: Set[IPv4Address] = set()
        self.ipv6_addresses: Set[IPv6Address] = {self.link_local}
        self.ipv4_prefixes: List[IPv4Network] = []
        self.ipv6_prefixes: List[IPv6Network] = []
        #: When True, any destination is treated as on-link — how we model
        #: the flat "internet exchange" cloud the public services sit on.
        self.on_link_everything = False
        #: Prefixes this interface answers NDP/ARP for on behalf of nodes
        #: behind it (the 5G gateway proxies its LAN prefix on the WAN).
        #: The port's filter holds this list: change it in place.
        self.proxy_nd_prefixes: List[IPv6Network] = []
        self.proxy_arp_networks: List[IPv4Network] = []
        #: The NIC's receive filter: the destination MACs it keeps —
        #: its own, broadcast, all-nodes, all-routers on a router, and
        #: the solicited-node group of each own IPv6 address (kept in
        #: step by :meth:`add_ipv6`/:meth:`remove_ipv6`).  An interface
        #: with :attr:`proxy_nd_prefixes` also keeps every solicited-node
        #: group, since it answers for addresses it does not own.
        self._accept: Set[bytes] = {
            self._mac_bytes,
            _BROADCAST_WIRE,
            _ALL_NODES_WIRE,
            _solicited_wire(self.link_local),
        }
        if is_router:
            self._accept.add(_ALL_ROUTERS_WIRE)
        self.v4_neighbors: Dict[IPv4Address, MacAddress] = {}
        self.v6_neighbors: Dict[IPv6Address, MacAddress] = {}
        self._pending_v4: Dict[IPv4Address, List[bytes]] = {}
        self._pending_v6: Dict[IPv6Address, List[bytes]] = {}
        self.on_ipv4: Optional[Callable[[LazyIPv4Packet], None]] = None
        self.on_ipv6: Optional[Callable[[LazyIPv6Packet], None]] = None
        self.on_ra: Optional[Callable[[RouterAdvertisement, IPv6Address], None]] = None
        self.on_rs: Optional[Callable[[RouterSolicitation, IPv6Address], None]] = None
        self.arp_requests_sent = 0
        self.ns_sent = 0
        # Every L2Interface owner's on_frame is a pure per-port dispatch
        # to handle_frame, so deliveries can skip the trampoline; the
        # port filters first, on this interface's live filter state.
        port.sink = self.handle_frame
        port.accept = self._accept
        port.udp_ports = udp_ports
        port.proxy_nd = self.proxy_nd_prefixes
        #: Unicast data-plane counters (broadcast/multicast excluded), the
        #: evidence base for the client census in :mod:`repro.core.metrics`.
        self.tx_ipv4_unicast = 0
        self.tx_ipv6_unicast = 0

    # -- address management ----------------------------------------------------

    def add_ipv4(self, address: IPv4Address, prefix: IPv4Network) -> None:
        self.ipv4_addresses.add(address)
        if prefix not in self.ipv4_prefixes:
            self.ipv4_prefixes.append(prefix)

    def clear_ipv4(self) -> None:
        self.ipv4_addresses.clear()
        self.ipv4_prefixes.clear()

    def add_ipv6(self, address: IPv6Address, prefix: Optional[IPv6Network] = None) -> None:
        self.ipv6_addresses.add(address)
        self._accept.add(_solicited_wire(address))
        if prefix is not None and prefix not in self.ipv6_prefixes:
            self.ipv6_prefixes.append(prefix)

    def remove_ipv6(self, address: IPv6Address) -> None:
        self.ipv6_addresses.discard(address)
        group = _solicited_wire(address)
        # Leave the group only if no remaining address shares it.
        if not any(_solicited_wire(other) == group for other in self.ipv6_addresses):
            self._accept.discard(group)

    def primary_ipv4(self) -> Optional[IPv4Address]:
        return next(iter(sorted(self.ipv4_addresses, key=int)), None)

    # -- frame intake -------------------------------------------------------------

    def handle_frame(self, raw: bytes) -> None:
        # The port has already run the NIC filter (Port.keeps), so only
        # frames the interface takes get here.  Dispatch on the
        # ethertype bytes.  The whole receive path works from the raw
        # frame: no frame object is ever built (the L3 decode caches key
        # by payload value, and the source MAC is only materialized when
        # a neighbor entry is actually learned).
        if len(raw) < 14:
            return
        ethertype = (raw[12] << 8) | raw[13]
        if ethertype == _ETHERTYPE_IPV4:
            self._handle_ipv4(raw)
        elif ethertype == _ETHERTYPE_IPV6:
            self._handle_ipv6(raw)
        elif ethertype == _ETHERTYPE_ARP:
            self._handle_arp(raw)

    def _handle_arp(self, raw: bytes) -> None:
        try:
            arp = ArpPacket.decode(raw[14:])
        except ValueError:
            return
        if arp.sender_ip != UNSPECIFIED_V4:
            self._learn_v4(arp.sender_ip, arp.sender_mac)
        if arp.op == ArpOp.REQUEST and (
            arp.target_ip in self.ipv4_addresses
            or any(arp.target_ip in net for net in self.proxy_arp_networks)
        ):
            reply = arp.reply_from(self.mac)
            self._send_frame(arp.sender_mac, EtherType.ARP, reply.encode())

    def _handle_ipv4(self, raw: bytes) -> None:
        try:
            packet = decode_ipv4_cached(raw[14:])
        except ValueError:
            return
        if packet.src != UNSPECIFIED_V4 and not raw[6] & 1:
            self._learn_v4(packet.src, _mac_from_wire(raw[6:12]))
        if self.on_ipv4 is not None:
            self.on_ipv4(packet)

    def _handle_ipv6(self, raw: bytes) -> None:
        try:
            packet = decode_ipv6_cached(raw[14:])
        except ValueError:
            return
        if packet.next_header == _IPPROTO_ICMPV6 and self._handle_ndp(raw, packet):
            return
        if packet.src != UNSPECIFIED_V6:
            self._learn_v6(packet.src, _mac_from_wire(raw[6:12]))
        if self.on_ipv6 is not None:
            self.on_ipv6(packet)

    def _handle_ndp(self, raw: bytes, packet: LazyIPv6Packet) -> bool:
        """Returns True when the message was NDP and fully consumed."""
        src = packet.src
        try:
            message = packet.icmpv6()
        except ValueError:
            return True
        # Exact-type dispatch, ordered by observed frequency (periodic
        # RAs dominate the NDP stream): decode_icmpv6 constructs the
        # concrete classes directly, so no subclass check is needed.
        cls = type(message)
        if cls is RouterAdvertisement:
            if message.source_lladdr is not None:
                self._learn_v6(src, message.source_lladdr)
            if self.on_ra is not None:
                self.on_ra(message, src)
            return True
        if cls is NeighborSolicitation:
            if message.source_lladdr is not None and src != UNSPECIFIED_V6:
                self._learn_v6(src, message.source_lladdr)
            # Owned-target set hit first; the proxy-prefix containment
            # scan only runs for addresses this interface doesn't own.
            if message.target in self.ipv6_addresses or any(
                message.target in p for p in self.proxy_nd_prefixes
            ):
                self._send_na(message.target, src)
            return True
        if cls is NeighborAdvertisement:
            if message.target_lladdr is not None:
                self._learn_v6(message.target, message.target_lladdr)
            return True
        if cls is RouterSolicitation:
            if message.source_lladdr is not None and src != UNSPECIFIED_V6:
                self._learn_v6(src, message.source_lladdr)
            if self.on_rs is not None:
                self.on_rs(message, src)
            return True
        return False  # echo & errors flow up to the owner

    # -- learning and queue flush ----------------------------------------------

    def _learn_v4(self, address: IPv4Address, mac: MacAddress) -> None:
        self.v4_neighbors[address] = mac
        # The pending queues are almost always empty; the truthiness
        # check dodges a pop() per learned/refreshed neighbor.
        if self._pending_v4:
            pending = self._pending_v4.pop(address, None)
            if pending:
                for raw in pending:
                    self._send_frame(mac, EtherType.IPV4, raw)

    def _learn_v6(self, address: IPv6Address, mac: MacAddress) -> None:
        self.v6_neighbors[address] = mac
        if self._pending_v6:
            pending = self._pending_v6.pop(address, None)
            if pending:
                for raw in pending:
                    self._send_frame(mac, EtherType.IPV6, raw)

    # -- sending -----------------------------------------------------------------

    def _send_frame(self, dst: MacAddress, ethertype: int, payload: bytes) -> None:
        # Wire bytes built directly — identical to
        # ``EthernetFrame(...).encode()`` without the frozen-dataclass
        # construction on every transmitted frame.
        self.port.transmit(
            _mac_wire(dst) + self._mac_bytes + _ETHERTYPE_WIRE[ethertype] + payload
        )

    def on_link_v4(self, destination: IPv4Address) -> bool:
        if self.on_link_everything:
            return True
        return any(destination in prefix for prefix in self.ipv4_prefixes)

    def on_link_v6(self, destination: IPv6Address) -> bool:
        if destination.is_link_local or self.on_link_everything:
            return True
        return any(destination in prefix for prefix in self.ipv6_prefixes)

    def send_ipv4(self, packet: LazyIPv4Packet, next_hop: Optional[IPv4Address] = None) -> None:
        """Transmit an IPv4 packet (a view or a record), resolving the
        next-hop MAC via ARP."""
        self.send_ipv4_wire(packet.encode(), packet.dst, next_hop)

    def send_ipv4_wire(
        self, raw: bytes, dst: IPv4Address, next_hop: Optional[IPv4Address] = None
    ) -> None:
        """Transmit the IPv4 packet ``raw``, bound for ``dst``: what a
        packet built straight to wire bytes is sent with."""
        if dst == IPV4_BROADCAST or self._is_subnet_broadcast(dst):
            self._send_frame(MAC_BROADCAST, EtherType.IPV4, raw)
            return
        self.tx_ipv4_unicast += 1
        hop = next_hop or dst
        # EAFP: the neighbor table hits on every frame after the first.
        try:
            self._send_frame(self.v4_neighbors[hop], EtherType.IPV4, raw)
            return
        except KeyError:
            pass
        self._pending_v4.setdefault(hop, []).append(raw)
        self._arp_request(hop)
        # args-style scheduling: no closure allocation per unresolved packet.
        self.engine.schedule(RESOLUTION_TIMEOUT, self._expire_pending_v4, hop)

    def send_ipv6(self, packet: LazyIPv6Packet, next_hop: Optional[IPv6Address] = None) -> None:
        """Transmit an IPv6 packet (a view or a record), resolving the
        next-hop MAC via NDP."""
        self.send_ipv6_wire(packet.encode(), packet.dst, next_hop)

    def send_ipv6_wire(
        self, raw: bytes, dst: IPv6Address, next_hop: Optional[IPv6Address] = None
    ) -> None:
        """Transmit the IPv6 packet ``raw``, bound for ``dst``."""
        if dst.is_multicast:
            self._send_frame(multicast_mac_for_ipv6(dst), EtherType.IPV6, raw)
            return
        self.tx_ipv6_unicast += 1
        hop = next_hop or dst
        try:
            self._send_frame(self.v6_neighbors[hop], EtherType.IPV6, raw)
            return
        except KeyError:
            pass
        self._pending_v6.setdefault(hop, []).append(raw)
        self._neighbor_solicit(hop)
        self.engine.schedule(RESOLUTION_TIMEOUT, self._expire_pending_v6, hop)

    def _is_subnet_broadcast(self, address: IPv4Address) -> bool:
        return any(address == p.broadcast_address for p in self.ipv4_prefixes)

    def _arp_request(self, target: IPv4Address) -> None:
        sender_ip = self.primary_ipv4() or UNSPECIFIED_V4
        request = ArpPacket.request(self.mac, sender_ip, target)
        self.arp_requests_sent += 1
        self._send_frame(MAC_BROADCAST, EtherType.ARP, request.encode())

    def _neighbor_solicit(self, target: IPv6Address) -> None:
        group = solicited_node_multicast(target)
        ns = NeighborSolicitation(target=target, source_lladdr=self.mac)
        payload = encode_icmpv6(ns, self.link_local, group)
        raw = encode_ipv6(self.link_local, group, _IPPROTO_ICMPV6, payload, hop_limit=255)
        self.ns_sent += 1
        self._send_frame(multicast_mac_for_ipv6(group), EtherType.IPV6, raw)

    def _send_na(self, target: IPv6Address, requester: IPv6Address) -> None:
        na = NeighborAdvertisement(
            target=target, router=self.is_router, target_lladdr=self.mac
        )
        dst = requester if requester != UNSPECIFIED_V6 else ALL_NODES_V6
        payload = encode_icmpv6(na, target, dst)
        self.send_ipv6_wire(
            encode_ipv6(target, dst, _IPPROTO_ICMPV6, payload, hop_limit=255), dst
        )

    def _expire_pending_v4(self, hop: IPv4Address) -> None:
        if hop not in self.v4_neighbors:
            self._pending_v4.pop(hop, None)

    def _expire_pending_v6(self, hop: IPv6Address) -> None:
        if hop not in self.v6_neighbors:
            self._pending_v6.pop(hop, None)

    def send_router_solicitation(self) -> None:
        """Hosts send an RS on link-up to trigger immediate RAs."""
        rs = RouterSolicitation(source_lladdr=self.mac)
        payload = encode_icmpv6(rs, self.link_local, ALL_ROUTERS_V6)
        raw = encode_ipv6(
            self.link_local, ALL_ROUTERS_V6, _IPPROTO_ICMPV6, payload, hop_limit=255
        )
        self._send_frame(multicast_mac_for_ipv6(ALL_ROUTERS_V6), EtherType.IPV6, raw)
