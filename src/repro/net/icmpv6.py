"""ICMPv6 (RFC 4443) and Neighbor Discovery (RFC 4861) with the options
the paper's testbed depends on:

- Prefix Information (RFC 4861 §4.6.2) — SLAAC prefixes from the 5G
  gateway and the managed switch;
- Recursive DNS Server, RDNSS (RFC 8106 §5.1) — how the gateway leaked
  the *dead* ``fd00:976a::9``/``::10`` resolvers (paper figure 3), and how
  the healthy DNS64 is advertised;
- MTU, Source/Target Link-Layer Address;
- default-router preference (RFC 4191) — the managed switch sends its RA
  at *low* priority so the gateway keeps winning default-route selection.

ICMPv6 checksums include the IPv6 pseudo-header, so encode/decode take
the enclosing source and destination addresses.
"""

from __future__ import annotations

import enum
import struct
from functools import cached_property
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.net.addresses import IPv6Address, IPv6Network, MacAddress
from repro.net.checksum import internet_checksum, pseudo_sum_v6

__all__ = [
    "Icmpv6Type",
    "RouterPreference",
    "NdOptionType",
    "NdOption",
    "LinkLayerAddressOption",
    "PrefixInformation",
    "MtuOption",
    "RdnssOption",
    "Icmpv6Message",
    "RouterSolicitation",
    "RouterAdvertisement",
    "NeighborSolicitation",
    "NeighborAdvertisement",
    "encode_icmpv6",
    "decode_icmpv6",
]


class Icmpv6Type(enum.IntEnum):
    """ICMPv6 message types (RFC 4443/4861)."""

    DEST_UNREACHABLE = 1
    PACKET_TOO_BIG = 2
    TIME_EXCEEDED = 3
    ECHO_REQUEST = 128
    ECHO_REPLY = 129
    ROUTER_SOLICITATION = 133
    ROUTER_ADVERTISEMENT = 134
    NEIGHBOR_SOLICITATION = 135
    NEIGHBOR_ADVERTISEMENT = 136


class RouterPreference(enum.IntEnum):
    """RFC 4191 §2.1 default router preference (2-bit signed)."""

    HIGH = 0b01
    MEDIUM = 0b00
    LOW = 0b11

    @classmethod
    def from_bits(cls, bits: int) -> "RouterPreference":
        try:
            return cls(bits & 0b11)
        except ValueError:
            # 0b10 is reserved and MUST be treated as MEDIUM (RFC 4191 §2.2)
            return cls.MEDIUM


class NdOptionType(enum.IntEnum):
    """Neighbor Discovery option type codes."""

    SOURCE_LINK_LAYER_ADDRESS = 1
    TARGET_LINK_LAYER_ADDRESS = 2
    PREFIX_INFORMATION = 3
    MTU = 5
    RDNSS = 25
    DNSSL = 31


# ---------------------------------------------------------------------------
# ND options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NdOption:
    """An unrecognized ND option carried opaquely (type, raw body)."""

    option_type: int
    body: bytes  # contents after the 2-byte type/length prefix

    def encode(self) -> bytes:
        total = 2 + len(self.body)
        if total % 8:
            raise ValueError("ND option length must be a multiple of 8")
        return struct.pack("!BB", self.option_type, total // 8) + self.body

    @classmethod
    def decode(cls, option_type: int, body: bytes) -> "NdOption":
        """The opaque carrier round-trips the body bytes verbatim."""
        return cls(option_type, bytes(body))


@dataclass(frozen=True)
class LinkLayerAddressOption:
    """Source or Target Link-Layer Address option (types 1 and 2)."""

    option_type: int
    mac: MacAddress

    def encode(self) -> bytes:
        return struct.pack("!BB", self.option_type, 1) + self.mac.to_bytes()

    @classmethod
    def decode(cls, option_type: int, body: bytes) -> "LinkLayerAddressOption":
        if len(body) != 6:
            raise ValueError("link-layer address option must carry 6 bytes")
        return cls(option_type, MacAddress.from_bytes(body))


@dataclass(frozen=True)
class PrefixInformation:
    """Prefix Information option (RFC 4861 §4.6.2)."""

    prefix: IPv6Network
    on_link: bool = True
    autonomous: bool = True
    valid_lifetime: int = 2592000
    preferred_lifetime: int = 604800

    def encode(self) -> bytes:
        flags = (0x80 if self.on_link else 0) | (0x40 if self.autonomous else 0)
        return (
            struct.pack(
                "!BBBBIII",
                NdOptionType.PREFIX_INFORMATION,
                4,
                self.prefix.prefixlen,
                flags,
                self.valid_lifetime,
                self.preferred_lifetime,
                0,
            )
            + self.prefix.network_address.packed
        )

    @classmethod
    def decode(cls, body: bytes) -> "PrefixInformation":
        if len(body) != 30:
            raise ValueError("prefix information option must be 32 bytes total")
        prefix_len, flags, valid, preferred, _res = struct.unpack("!BBIII", body[:14])
        addr = IPv6Address(body[14:30])
        return cls(
            prefix=IPv6Network((addr, prefix_len), strict=False),
            on_link=bool(flags & 0x80),
            autonomous=bool(flags & 0x40),
            valid_lifetime=valid,
            preferred_lifetime=preferred,
        )


@dataclass(frozen=True)
class MtuOption:
    """MTU option (RFC 4861 §4.6.4)."""

    mtu: int

    def encode(self) -> bytes:
        return struct.pack("!BBHI", NdOptionType.MTU, 1, 0, self.mtu)

    @classmethod
    def decode(cls, body: bytes) -> "MtuOption":
        if len(body) != 6:
            raise ValueError("MTU option must be 8 bytes total")
        _res, mtu = struct.unpack("!HI", body)
        return cls(mtu)


@dataclass(frozen=True)
class RdnssOption:
    """Recursive DNS Server option (RFC 8106 §5.1).

    The paper's 5G gateway sent ``fd00:976a::9`` and ``fd00:976a::10``
    here — addresses that were *not alive* — which is the first problem
    the testbed's managed-switch RA works around.
    """

    servers: Sequence[IPv6Address]
    lifetime: int = 1800

    def encode(self) -> bytes:
        if not self.servers:
            raise ValueError("RDNSS option requires at least one server")
        body = b"".join(s.packed for s in self.servers)
        length = 1 + 2 * len(self.servers)
        return struct.pack("!BBHI", NdOptionType.RDNSS, length, 0, self.lifetime) + body

    @classmethod
    def decode(cls, body: bytes) -> "RdnssOption":
        if len(body) < 22 or (len(body) - 6) % 16:
            raise ValueError("malformed RDNSS option")
        _res, lifetime = struct.unpack("!HI", body[:6])
        servers = tuple(
            IPv6Address(body[off : off + 16]) for off in range(6, len(body), 16)
        )
        return cls(servers=servers, lifetime=lifetime)


AnyNdOption = object  # documentation alias; options are duck-typed on .encode()


def _decode_options(data: bytes) -> List[Any]:
    """Decode a concatenated ND options block into typed option objects."""
    options = []
    off = 0
    while off < len(data):
        if len(data) - off < 2:
            raise ValueError("truncated ND option header")
        opt_type, opt_len = data[off], data[off + 1]
        if opt_len == 0:
            raise ValueError("ND option with zero length")
        total = opt_len * 8
        if off + total > len(data):
            raise ValueError("truncated ND option body")
        body = data[off + 2 : off + total]
        if opt_type in (
            NdOptionType.SOURCE_LINK_LAYER_ADDRESS,
            NdOptionType.TARGET_LINK_LAYER_ADDRESS,
        ):
            options.append(LinkLayerAddressOption.decode(opt_type, body))
        elif opt_type == NdOptionType.PREFIX_INFORMATION:
            options.append(PrefixInformation.decode(body))
        elif opt_type == NdOptionType.MTU:
            options.append(MtuOption.decode(body))
        elif opt_type == NdOptionType.RDNSS:
            options.append(RdnssOption.decode(body))
        else:
            options.append(NdOption.decode(opt_type, body))
        off += total
    return options


def _encode_options(options: Sequence[Any]) -> bytes:
    return b"".join(opt.encode() for opt in options)


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Icmpv6Message:
    """A generic ICMPv6 message (echo and error types use this directly)."""

    icmp_type: int
    code: int = 0
    rest: int = 0
    body: bytes = b""

    @classmethod
    def echo_request(cls, ident: int, seq: int, payload: bytes = b"") -> "Icmpv6Message":
        return cls(Icmpv6Type.ECHO_REQUEST, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), payload)

    @classmethod
    def echo_reply(cls, ident: int, seq: int, payload: bytes = b"") -> "Icmpv6Message":
        return cls(Icmpv6Type.ECHO_REPLY, 0, ((ident & 0xFFFF) << 16) | (seq & 0xFFFF), payload)

    @property
    def echo_ident(self) -> int:
        return (self.rest >> 16) & 0xFFFF

    @property
    def echo_seq(self) -> int:
        return self.rest & 0xFFFF

    def _encode_body(self) -> bytes:
        return struct.pack("!I", self.rest) + self.body


@dataclass(frozen=True)
class RouterSolicitation:
    """RS (type 133): a host asking routers to advertise immediately."""

    source_lladdr: Optional[MacAddress] = None

    icmp_type = Icmpv6Type.ROUTER_SOLICITATION

    def _encode_body(self) -> bytes:
        opts = []
        if self.source_lladdr is not None:
            opts.append(
                LinkLayerAddressOption(NdOptionType.SOURCE_LINK_LAYER_ADDRESS, self.source_lladdr)
            )
        return struct.pack("!I", 0) + _encode_options(opts)

    @classmethod
    def _decode_body(cls, rest: int, body: bytes) -> "RouterSolicitation":
        del rest
        lladdr = None
        for opt in _decode_options(body):
            if (
                isinstance(opt, LinkLayerAddressOption)
                and opt.option_type == NdOptionType.SOURCE_LINK_LAYER_ADDRESS
            ):
                lladdr = opt.mac
        return cls(source_lladdr=lladdr)


@dataclass(frozen=True)
class RouterAdvertisement:
    """RA (type 134) with RFC 4191 preference and RFC 8106 RDNSS options.

    ``router_lifetime == 0`` means "not a default router" (the managed
    switch uses a non-zero lifetime but LOW preference so that the 5G
    gateway remains the default router while the ULA prefix and healthy
    RDNSS still reach clients).
    """

    cur_hop_limit: int = 64
    managed: bool = False  # M flag: addresses via DHCPv6
    other_config: bool = False  # O flag: other config via DHCPv6
    preference: RouterPreference = RouterPreference.MEDIUM
    router_lifetime: int = 1800
    reachable_time: int = 0
    retrans_timer: int = 0
    options: tuple = field(default_factory=tuple)

    icmp_type = Icmpv6Type.ROUTER_ADVERTISEMENT

    def _encode_body(self) -> bytes:
        flags = (
            (0x80 if self.managed else 0)
            | (0x40 if self.other_config else 0)
            | ((int(self.preference) & 0b11) << 3)
        )
        return (
            struct.pack(
                "!BBHII",
                self.cur_hop_limit,
                flags,
                self.router_lifetime,
                self.reachable_time,
                self.retrans_timer,
            )
            + _encode_options(self.options)
        )

    @classmethod
    def _decode_body(cls, rest: int, body: bytes) -> "RouterAdvertisement":
        cur_hop_limit = (rest >> 24) & 0xFF
        flags = (rest >> 16) & 0xFF
        router_lifetime = rest & 0xFFFF
        if len(body) < 8:
            raise ValueError("truncated router advertisement")
        reachable, retrans = struct.unpack("!II", body[:8])
        return cls(
            cur_hop_limit=cur_hop_limit,
            managed=bool(flags & 0x80),
            other_config=bool(flags & 0x40),
            preference=RouterPreference.from_bits((flags >> 3) & 0b11),
            router_lifetime=router_lifetime,
            reachable_time=reachable,
            retrans_timer=retrans,
            options=tuple(_decode_options(body[8:])),
        )

    # -- typed option accessors --------------------------------------------
    #
    # Decoded RAs are shared via the decode cache and re-read on every
    # delivery (each host on the link processes the same periodic RA), so
    # the option scans are memoised.  ``cached_property`` writes straight
    # into ``__dict__``, which a frozen dataclass permits (only
    # ``__setattr__`` is blocked) and which never affects field-based
    # equality or hashing.

    @cached_property
    def prefixes(self) -> List[PrefixInformation]:
        return [o for o in self.options if isinstance(o, PrefixInformation)]

    @cached_property
    def rdnss_servers(self) -> List[IPv6Address]:
        out: List[IPv6Address] = []
        for o in self.options:
            if isinstance(o, RdnssOption):
                out.extend(o.servers)
        return out

    @cached_property
    def source_lladdr(self) -> Optional[MacAddress]:
        for o in self.options:
            if (
                isinstance(o, LinkLayerAddressOption)
                and o.option_type == NdOptionType.SOURCE_LINK_LAYER_ADDRESS
            ):
                return o.mac
        return None


@dataclass(frozen=True)
class NeighborSolicitation:
    """NS (type 135): IPv6's ARP-request analogue (also used for DAD)."""

    target: IPv6Address
    source_lladdr: Optional[MacAddress] = None

    icmp_type = Icmpv6Type.NEIGHBOR_SOLICITATION

    def _encode_body(self) -> bytes:
        opts = []
        if self.source_lladdr is not None:
            opts.append(
                LinkLayerAddressOption(NdOptionType.SOURCE_LINK_LAYER_ADDRESS, self.source_lladdr)
            )
        return struct.pack("!I", 0) + self.target.packed + _encode_options(opts)

    @classmethod
    def _decode_body(cls, rest: int, body: bytes) -> "NeighborSolicitation":
        del rest
        if len(body) < 16:
            raise ValueError("truncated neighbor solicitation")
        target = IPv6Address(body[:16])
        lladdr = None
        for opt in _decode_options(body[16:]):
            if (
                isinstance(opt, LinkLayerAddressOption)
                and opt.option_type == NdOptionType.SOURCE_LINK_LAYER_ADDRESS
            ):
                lladdr = opt.mac
        return cls(target=target, source_lladdr=lladdr)


@dataclass(frozen=True)
class NeighborAdvertisement:
    """NA (type 136): IPv6's ARP-reply analogue."""

    target: IPv6Address
    router: bool = False
    solicited: bool = True
    override: bool = True
    target_lladdr: Optional[MacAddress] = None

    icmp_type = Icmpv6Type.NEIGHBOR_ADVERTISEMENT

    def _encode_body(self) -> bytes:
        flags = (
            (0x80000000 if self.router else 0)
            | (0x40000000 if self.solicited else 0)
            | (0x20000000 if self.override else 0)
        )
        opts = []
        if self.target_lladdr is not None:
            opts.append(
                LinkLayerAddressOption(NdOptionType.TARGET_LINK_LAYER_ADDRESS, self.target_lladdr)
            )
        return struct.pack("!I", flags) + self.target.packed + _encode_options(opts)

    @classmethod
    def _decode_body(cls, rest: int, body: bytes) -> "NeighborAdvertisement":
        if len(body) < 16:
            raise ValueError("truncated neighbor advertisement")
        target = IPv6Address(body[:16])
        lladdr = None
        for opt in _decode_options(body[16:]):
            if (
                isinstance(opt, LinkLayerAddressOption)
                and opt.option_type == NdOptionType.TARGET_LINK_LAYER_ADDRESS
            ):
                lladdr = opt.mac
        return cls(
            target=target,
            router=bool(rest & 0x80000000),
            solicited=bool(rest & 0x40000000),
            override=bool(rest & 0x20000000),
            target_lladdr=lladdr,
        )


_ND_CLASSES = {
    Icmpv6Type.ROUTER_SOLICITATION: RouterSolicitation,
    Icmpv6Type.ROUTER_ADVERTISEMENT: RouterAdvertisement,
    Icmpv6Type.NEIGHBOR_SOLICITATION: NeighborSolicitation,
    Icmpv6Type.NEIGHBOR_ADVERTISEMENT: NeighborAdvertisement,
}


# ND traffic is extremely repetitive — every host on a link decodes the
# same periodic RA bytes, and daemons re-encode an identical RA each
# interval.  All message classes are frozen dataclasses, so decoded
# objects are safe to share and (message, src, dst) keys are stable.
_ENCODE_CACHE: dict = {}
_DECODE_CACHE: dict = {}
_CODEC_CACHE_LIMIT = 8192


def encode_icmpv6(message: Any, src: IPv6Address, dst: IPv6Address) -> bytes:
    """Serialize any ICMPv6/ND message with a correct pseudo-header checksum."""
    try:
        key = (message, src, dst)
        cached = _ENCODE_CACHE.get(key)
    except TypeError:  # unhashable field (e.g. list-built options)
        key = None
        cached = None
    if cached is not None:
        return cached
    body = message._encode_body()
    code = getattr(message, "code", 0)
    header = struct.pack("!BBH", int(message.icmp_type), code, 0)
    length = len(header) + len(body)
    csum = internet_checksum(header + body, pseudo_sum_v6(src, dst, 58, length))
    header = struct.pack("!BBH", int(message.icmp_type), code, csum)
    wire = header + body
    if key is not None:
        if len(_ENCODE_CACHE) >= _CODEC_CACHE_LIMIT:
            _ENCODE_CACHE.clear()
        _ENCODE_CACHE[key] = wire
    return wire


def decode_icmpv6(
    data: bytes, src: IPv6Address, dst: IPv6Address, verify: bool = True
) -> Any:
    """Parse ICMPv6 bytes into the appropriate typed message.

    ND types decode into their rich classes; everything else becomes a
    generic :class:`Icmpv6Message`.  Verified decodes are cached by
    ``(data, src, dst)`` — the checksum covers exactly that triple — and
    the returned messages are immutable, so hits are shared objects.
    """
    if verify:
        key = (data, src, dst)
        try:
            return _DECODE_CACHE[key]
        except KeyError:
            pass
    if len(data) < 8:
        raise ValueError(f"ICMPv6 message too short: {len(data)} bytes")
    if verify:
        if internet_checksum(data, pseudo_sum_v6(src, dst, 58, len(data))) != 0:
            raise ValueError("ICMPv6 checksum mismatch")
    icmp_type, code, _csum, rest = struct.unpack("!BBHI", data[:8])
    nd_cls = _ND_CLASSES.get(icmp_type)
    if nd_cls is not None:
        if code != 0:
            raise ValueError(f"ND message with non-zero code {code}")
        message = nd_cls._decode_body(rest, data[8:])
    else:
        message = Icmpv6Message(icmp_type=icmp_type, code=code, rest=rest, body=bytes(data[8:]))
    if verify:
        if len(_DECODE_CACHE) >= _CODEC_CACHE_LIMIT:
            _DECODE_CACHE.clear()
        _DECODE_CACHE[key] = message
    return message
