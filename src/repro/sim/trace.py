"""Packet capture for the simulated network.

Every port can mirror its traffic into a :class:`PacketTrace`; entries
carry the raw frame bytes plus a parsed one-line summary, giving the
experiments a capture to assert against (e.g. "no poisoned A answer
ever reached the Windows 10 client").
"""

from __future__ import annotations

import struct
from typing import Callable, List

from repro._compat import slotted_dataclass
from repro.net.ethernet import EtherType
from repro.net.ipv4 import IPProto
from repro.net.lazy import LazyEthernetFrame, LazyIPv4Packet, LazyIPv6Packet
from repro.net.udp import UdpDatagram

__all__ = ["TraceEntry", "PacketTrace"]


@slotted_dataclass()
class TraceEntry:
    time: float
    node: str
    port: str
    direction: str  # "tx" | "rx"
    frame: bytes
    summary: str

    def __str__(self) -> str:
        return f"{self.time:10.6f} {self.node}/{self.port} {self.direction} {self.summary}"


def summarize_frame(raw: bytes) -> str:
    """A best-effort one-line decode of an Ethernet frame."""
    try:
        frame = LazyEthernetFrame(raw)
    except ValueError:
        return f"<malformed frame, {len(raw)} bytes>"
    if frame.ethertype == EtherType.ARP:
        return f"ARP {frame.src} -> {frame.dst}"
    if frame.ethertype == EtherType.IPV4:
        try:
            packet = LazyIPv4Packet(frame.payload, verify=False)
        except ValueError:
            return "IPv4 <malformed>"
        extra = _udp_ports(packet.proto, packet.payload)
        return f"IPv4 {packet.src} -> {packet.dst} proto={packet.proto}{extra}"
    if frame.ethertype == EtherType.IPV6:
        try:
            packet6 = LazyIPv6Packet(frame.payload)
        except ValueError:
            return "IPv6 <malformed>"
        extra = _udp_ports(packet6.next_header, packet6.payload)
        return f"IPv6 {packet6.src} -> {packet6.dst} nh={packet6.next_header}{extra}"
    return f"ethertype={frame.ethertype:#06x} {len(raw)} bytes"


def _udp_ports(proto: int, payload: bytes) -> str:
    """`` udp SPORT->DPORT`` for a UDP header whose length field fits
    the payload (the checks ``UdpDatagram.decode`` makes unverified),
    else the empty string."""
    if proto != IPProto.UDP or len(payload) < UdpDatagram.HEADER_LEN:
        return ""
    src_port, dst_port, length = struct.unpack("!HHH", payload[:6])
    if length < UdpDatagram.HEADER_LEN or length > len(payload):
        return ""
    return f" udp {src_port}->{dst_port}"


class PacketTrace:
    """An append-only capture buffer shared by any number of ports."""

    def __init__(self, clock: Callable[[], float], capacity: int = 100_000) -> None:
        self._clock = clock
        self._capacity = capacity
        self.entries: List[TraceEntry] = []

    def record(self, node: str, port: str, direction: str, frame: bytes) -> None:
        if len(self.entries) >= self._capacity:
            return
        self.entries.append(
            TraceEntry(self._clock(), node, port, direction, frame, summarize_frame(frame))
        )

    def __len__(self) -> int:
        return len(self.entries)

    def dump(self, limit: int = 50) -> str:
        return "\n".join(str(e) for e in self.entries[-limit:])
