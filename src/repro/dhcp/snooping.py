"""DHCPv4 snooping, as configured on the testbed's managed switch.

The 5G gateway's built-in DHCP pool "was not capable of defining option
108, and could not be disabled.  To work around these DHCPv4
limitations, DHCPv4 snooping was configured on the managed switch to
block the 5G mobile Internet gateway's DHCPv4 pool" (paper §IV.A).

The snooper inspects Ethernet frames: server-to-client DHCP (UDP source
port 67) arriving on an *untrusted* port is dropped; everything else is
forwarded.  The switch consults it per ingress port.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Set

from repro.dhcp.message import DHCP_SERVER_PORT
from repro.net.ethernet import EtherType
from repro.net.ipv4 import IPProto
from repro.net.lazy import LazyEthernetFrame, LazyIPv4Packet
from repro.net.udp import UdpDatagram

__all__ = ["SnoopAction", "DhcpSnooper"]


class SnoopAction(enum.Enum):
    """Verdict of the snooper for one frame."""

    FORWARD = "forward"
    DROP = "drop"


@dataclass
class DhcpSnooper:
    """Per-port DHCP snooping policy.

    Ports in ``trusted_ports`` may source DHCP server messages (the Pi
    server's port); all other ports have server-sourced DHCP dropped.
    When ``enabled`` is False every frame forwards — the pre-workaround
    configuration, used by the figure-3 experiment to show the gateway
    pool winning.
    """

    trusted_ports: Set[str] = field(default_factory=set)
    enabled: bool = True
    dropped: int = 0
    inspected: int = 0

    def trust(self, port: str) -> None:
        self.trusted_ports.add(port)

    def untrust(self, port: str) -> None:
        self.trusted_ports.discard(port)

    def inspect(self, ingress_port: str, frame: LazyEthernetFrame) -> SnoopAction:
        """Decide the fate of ``frame`` received on ``ingress_port``.

        Only server-sourced DHCP (UDP source port 67) can ever be
        dropped, so the UDP checksum — the expensive part of a full
        decode — is verified only for those frames; everything else is
        classified from the structurally validated header and forwarded.
        """
        if not self.enabled or ingress_port in self.trusted_ports:
            return SnoopAction.FORWARD
        if frame.ethertype != EtherType.IPV4:
            return SnoopAction.FORWARD
        try:
            packet = LazyIPv4Packet(frame.payload)
        except ValueError:
            return SnoopAction.FORWARD
        if packet.proto != IPProto.UDP:
            return SnoopAction.FORWARD
        data = packet.payload
        if len(data) < UdpDatagram.HEADER_LEN:
            return SnoopAction.FORWARD
        length = (data[4] << 8) | data[5]
        if length < UdpDatagram.HEADER_LEN or length > len(data):
            return SnoopAction.FORWARD
        src_port = (data[0] << 8) | data[1]
        if src_port != DHCP_SERVER_PORT:
            self.inspected += 1
            return SnoopAction.FORWARD
        try:
            datagram = UdpDatagram.decode(data, packet.src, packet.dst)
        except ValueError:
            return SnoopAction.FORWARD
        self.inspected += 1
        if datagram.src_port == DHCP_SERVER_PORT:
            self.dropped += 1
            return SnoopAction.DROP
        return SnoopAction.FORWARD
