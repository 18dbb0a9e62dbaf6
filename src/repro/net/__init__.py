"""Packet substrate: addresses, checksums and byte-accurate protocol codecs.

Everything in this package encodes to and decodes from real wire bytes.
The simulator (:mod:`repro.sim`) moves these bytes between nodes, so a
packet capture from the simulation is a genuine protocol trace.
"""

from repro.net.addresses import (
    embed_ipv4_in_nat64,
    eui64_interface_id,
    extract_ipv4_from_nat64,
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    link_local_from_mac,
    MacAddress,
    multicast_mac_for_ipv6,
    slaac_address,
    solicited_node_multicast,
    WELL_KNOWN_NAT64_PREFIX,
)
from repro.net.arp import ArpOp, ArpPacket
from repro.net.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header_v4,
    pseudo_header_v6,
)
from repro.net.ethernet import EthernetFrame, EtherType, MAC_BROADCAST
from repro.net.icmp import IcmpMessage, IcmpType
from repro.net.icmpv6 import (
    Icmpv6Message,
    Icmpv6Type,
    LinkLayerAddressOption,
    MtuOption,
    NdOption,
    NdOptionType,
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInformation,
    RdnssOption,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
)
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.ipv6 import IPv6Packet
from repro.net.tcp import TcpFlags, TcpSegment
from repro.net.udp import UdpDatagram

__all__ = [
    "MacAddress",
    "IPv4Address",
    "IPv6Address",
    "IPv4Network",
    "IPv6Network",
    "WELL_KNOWN_NAT64_PREFIX",
    "eui64_interface_id",
    "link_local_from_mac",
    "slaac_address",
    "embed_ipv4_in_nat64",
    "extract_ipv4_from_nat64",
    "solicited_node_multicast",
    "multicast_mac_for_ipv6",
    "ones_complement_sum",
    "internet_checksum",
    "pseudo_header_v4",
    "pseudo_header_v6",
    "EtherType",
    "EthernetFrame",
    "MAC_BROADCAST",
    "ArpOp",
    "ArpPacket",
    "IPProto",
    "IPv4Packet",
    "IPv6Packet",
    "UdpDatagram",
    "TcpSegment",
    "TcpFlags",
    "IcmpMessage",
    "IcmpType",
    "Icmpv6Type",
    "Icmpv6Message",
    "NdOption",
    "NdOptionType",
    "PrefixInformation",
    "RdnssOption",
    "MtuOption",
    "LinkLayerAddressOption",
    "RouterAdvertisement",
    "RouterSolicitation",
    "NeighborSolicitation",
    "NeighborAdvertisement",
    "RouterPreference",
]
