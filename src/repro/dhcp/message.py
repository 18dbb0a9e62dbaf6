"""The DHCPv4/BOOTP message wire format (RFC 2131 §2).

Encodes the full fixed-format header (op/htype/hlen/xid/flags/ciaddr/
yiaddr/siaddr/giaddr/chaddr/sname/file), the 0x63825363 magic cookie and
the options field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dhcp.options import (
    decode_options,
    DhcpMessageType,
    DhcpOptionCode,
    encode_options,
    unpack_addresses,
    unpack_v6only_wait,
)
from repro.net.addresses import IPv4Address, MacAddress

__all__ = ["DhcpMessage", "DHCP_CLIENT_PORT", "DHCP_SERVER_PORT", "MAGIC_COOKIE"]

DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68
MAGIC_COOKIE = b"\x63\x82\x53\x63"

_ZERO4 = IPv4Address("0.0.0.0")


@dataclass(frozen=True)
class DhcpMessage:
    """A DHCPv4 message. ``options`` maps option code to raw bytes; typed
    accessors cover the options the testbed exchanges."""

    op: int  # 1 = BOOTREQUEST, 2 = BOOTREPLY
    xid: int
    chaddr: MacAddress
    ciaddr: IPv4Address = _ZERO4
    yiaddr: IPv4Address = _ZERO4
    siaddr: IPv4Address = _ZERO4
    giaddr: IPv4Address = _ZERO4
    secs: int = 0
    broadcast: bool = False
    options: Dict[int, bytes] = field(default_factory=dict)

    FIXED_LEN = 236  # before the magic cookie

    # -- wire format -----------------------------------------------------------

    def encode(self) -> bytes:
        flags = 0x8000 if self.broadcast else 0
        fixed = struct.pack(
            "!BBBBIHH4s4s4s4s16s64s128s",
            self.op,
            1,  # htype: Ethernet
            6,  # hlen
            0,  # hops
            self.xid,
            self.secs,
            flags,
            self.ciaddr.packed,
            self.yiaddr.packed,
            self.siaddr.packed,
            self.giaddr.packed,
            self.chaddr.to_bytes().ljust(16, b"\x00"),
            b"",  # sname
            b"",  # file
        )
        opts: List[Tuple[int, bytes]] = sorted(self.options.items())
        return fixed + MAGIC_COOKIE + encode_options(opts)

    @classmethod
    def decode(cls, data: bytes) -> "DhcpMessage":
        if len(data) < cls.FIXED_LEN + 4:
            raise ValueError(f"DHCP message too short: {len(data)} bytes")
        (
            op,
            htype,
            hlen,
            _hops,
            xid,
            secs,
            flags,
            ciaddr,
            yiaddr,
            siaddr,
            giaddr,
            chaddr,
            _sname,
            _file,
        ) = struct.unpack("!BBBBIHH4s4s4s4s16s64s128s", data[: cls.FIXED_LEN])
        if (htype, hlen) != (1, 6):
            raise ValueError(f"unsupported DHCP hardware type {htype}/{hlen}")
        if data[cls.FIXED_LEN : cls.FIXED_LEN + 4] != MAGIC_COOKIE:
            raise ValueError("missing DHCP magic cookie")
        # One instance-dict write instead of the generated __init__'s
        # call per field; the record has no __post_init__ to skip.
        message = object.__new__(cls)
        message.__dict__.update(
            op=op,
            xid=xid,
            chaddr=MacAddress.from_bytes(chaddr[:6]),
            ciaddr=IPv4Address(ciaddr),
            yiaddr=IPv4Address(yiaddr),
            siaddr=IPv4Address(siaddr),
            giaddr=IPv4Address(giaddr),
            secs=secs,
            broadcast=bool(flags & 0x8000),
            options=decode_options(data[cls.FIXED_LEN + 4 :]),
        )
        return message

    # -- typed option accessors --------------------------------------------

    @property
    def message_type(self) -> Optional[DhcpMessageType]:
        raw = self.options.get(DhcpOptionCode.MESSAGE_TYPE)
        if raw is None or len(raw) != 1:
            return None
        try:
            return DhcpMessageType(raw[0])
        except ValueError:
            return None

    @property
    def requested_ip(self) -> Optional[IPv4Address]:
        raw = self.options.get(DhcpOptionCode.REQUESTED_IP)
        return IPv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def server_identifier(self) -> Optional[IPv4Address]:
        raw = self.options.get(DhcpOptionCode.SERVER_IDENTIFIER)
        return IPv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def parameter_request_list(self) -> List[int]:
        return list(self.options.get(DhcpOptionCode.PARAMETER_REQUEST_LIST, b""))

    @property
    def requests_ipv6_only(self) -> bool:
        """True when the client signalled RFC 8925 support by listing
        option 108 in its Parameter Request List (RFC 8925 §3.1)."""
        return DhcpOptionCode.IPV6_ONLY_PREFERRED in self.parameter_request_list

    @property
    def v6only_wait(self) -> Optional[int]:
        """Server-granted V6ONLY_WAIT seconds, or None when absent."""
        raw = self.options.get(DhcpOptionCode.IPV6_ONLY_PREFERRED)
        if raw is None:
            return None
        return unpack_v6only_wait(raw)

    @property
    def dns_servers(self) -> List[IPv4Address]:
        raw = self.options.get(DhcpOptionCode.DNS_SERVERS, b"")
        return unpack_addresses(raw) if raw else []

    @property
    def routers(self) -> List[IPv4Address]:
        raw = self.options.get(DhcpOptionCode.ROUTER, b"")
        return unpack_addresses(raw) if raw else []

    @property
    def subnet_mask(self) -> Optional[IPv4Address]:
        raw = self.options.get(DhcpOptionCode.SUBNET_MASK)
        return IPv4Address(raw) if raw and len(raw) == 4 else None

    @property
    def lease_time(self) -> Optional[int]:
        raw = self.options.get(DhcpOptionCode.LEASE_TIME)
        if raw is None or len(raw) != 4:
            return None
        return struct.unpack("!I", raw)[0]

    @property
    def domain_name(self) -> Optional[str]:
        raw = self.options.get(DhcpOptionCode.DOMAIN_NAME)
        return raw.decode("ascii", "replace") if raw else None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def discover(
        cls,
        xid: int,
        chaddr: MacAddress,
        request_option_108: bool = False,
        extra_prl: Sequence[int] = (),
    ) -> "DhcpMessage":
        """A DHCPDISCOVER, optionally advertising RFC 8925 support."""
        prl = [
            DhcpOptionCode.SUBNET_MASK,
            DhcpOptionCode.ROUTER,
            DhcpOptionCode.DNS_SERVERS,
            DhcpOptionCode.DOMAIN_NAME,
        ]
        if request_option_108:
            prl.append(DhcpOptionCode.IPV6_ONLY_PREFERRED)
        prl.extend(extra_prl)
        return cls(
            op=1,
            xid=xid,
            chaddr=chaddr,
            broadcast=True,
            options={
                DhcpOptionCode.MESSAGE_TYPE: bytes([DhcpMessageType.DISCOVER]),
                DhcpOptionCode.PARAMETER_REQUEST_LIST: bytes(prl),
            },
        )

    @classmethod
    def request(
        cls,
        xid: int,
        chaddr: MacAddress,
        requested_ip: IPv4Address,
        server_id: IPv4Address,
        request_option_108: bool = False,
    ) -> "DhcpMessage":
        prl = [
            DhcpOptionCode.SUBNET_MASK,
            DhcpOptionCode.ROUTER,
            DhcpOptionCode.DNS_SERVERS,
            DhcpOptionCode.DOMAIN_NAME,
        ]
        if request_option_108:
            prl.append(DhcpOptionCode.IPV6_ONLY_PREFERRED)
        return cls(
            op=1,
            xid=xid,
            chaddr=chaddr,
            broadcast=True,
            options={
                DhcpOptionCode.MESSAGE_TYPE: bytes([DhcpMessageType.REQUEST]),
                DhcpOptionCode.REQUESTED_IP: requested_ip.packed,
                DhcpOptionCode.SERVER_IDENTIFIER: server_id.packed,
                DhcpOptionCode.PARAMETER_REQUEST_LIST: bytes(prl),
            },
        )

    def reply(
        self,
        message_type: DhcpMessageType,
        yiaddr: IPv4Address,
        server_id: IPv4Address,
        options: Optional[Dict[int, bytes]] = None,
    ) -> "DhcpMessage":
        """Build an OFFER/ACK/NAK for this request."""
        opts = {
            DhcpOptionCode.MESSAGE_TYPE: bytes([message_type]),
            DhcpOptionCode.SERVER_IDENTIFIER: server_id.packed,
        }
        if options:
            opts.update(options)
        return DhcpMessage(
            op=2,
            xid=self.xid,
            chaddr=self.chaddr,
            yiaddr=yiaddr,
            siaddr=server_id,
            broadcast=self.broadcast,
            options=opts,
        )
