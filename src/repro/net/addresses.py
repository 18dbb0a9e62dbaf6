"""Address types and transition-addressing helpers.

IPv4/IPv6 address and network types are thin re-exports of the stdlib
:mod:`ipaddress` types — they are already correct, fast and hashable.
What this module adds is everything the paper's testbed needs on top:

- :class:`MacAddress` with EUI-64 expansion (RFC 4291 appendix A);
- SLAAC address construction (prefix + interface identifier);
- the NAT64 *well-known prefix* ``64:ff9b::/96`` (RFC 6052 §2.1) and the
  embed/extract algorithms for all standard prefix lengths (RFC 6052 §2.2);
- solicited-node multicast and the multicast MAC mapping used by NDP;
- classification helpers (ULA, GUA, documentation space) used by the
  RFC 6724 policy table in :mod:`repro.nd.addrsel`.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from functools import lru_cache

IPv4Address = ipaddress.IPv4Address
IPv6Address = ipaddress.IPv6Address
IPv4Network = ipaddress.IPv4Network
IPv6Network = ipaddress.IPv6Network


def _install_fast_address_hashes() -> None:
    """Replace the stdlib address ``__hash__`` with an integer fast path.

    ``ipaddress._BaseAddress.__hash__`` computes ``hash(hex(self._ip))``
    — a fresh string allocation per call.  Addresses key every hot-path
    dict in the simulator (neighbor caches, demux tables, decode
    caches), so that shows up as several percent of a scenario run.
    Hashing the integer value directly is equality-consistent (equal
    addresses share ``_ip``, and the scope id folds in for scoped
    IPv6), allocation-free, and — unlike the stdlib's string hash —
    independent of ``PYTHONHASHSEED``.

    Patching the stdlib classes (rather than subclassing) keeps every
    instance the stdlib itself produces (``network.hosts()``,
    ``broadcast_address``, …) on the fast path and preserves all
    ``isinstance`` dispatch on the aliases above.
    """

    def _ipv4_hash(self: ipaddress.IPv4Address) -> int:
        return self._ip  # type: ignore[attr-defined, no-any-return]

    def _ipv6_hash(self: ipaddress.IPv6Address) -> int:
        scope = self._scope_id  # type: ignore[attr-defined]
        ip: int = self._ip  # type: ignore[attr-defined]
        if scope is None:
            return ip
        return ip ^ int.from_bytes(scope.encode("utf-8"), "big")

    # __eq__ gets the same treatment: the stdlib versions chain through
    # super().__eq__ plus a getattr per call (IPv6), or compare nested
    # address objects and build fresh ints from netmasks (networks).
    # These flat versions are semantically identical — same attributes,
    # same NotImplemented fallback — just without the indirection.

    def _ipv4_eq(self: ipaddress.IPv4Address, other: object) -> bool:
        try:
            return (
                self._ip == other._ip  # type: ignore[attr-defined]
                and other._version == 4  # type: ignore[attr-defined]
            )
        except AttributeError:
            return NotImplemented  # type: ignore[return-value]

    def _ipv6_eq(self: ipaddress.IPv6Address, other: object) -> bool:
        try:
            return (
                self._ip == other._ip  # type: ignore[attr-defined]
                and other._version == 6  # type: ignore[attr-defined]
                and self._scope_id == getattr(other, "_scope_id", None)  # type: ignore[attr-defined]
            )
        except AttributeError:
            return NotImplemented  # type: ignore[return-value]

    def _net_eq(self: ipaddress._BaseNetwork, other: object) -> bool:
        try:
            return (
                self._version == other._version  # type: ignore[attr-defined]
                and self.network_address._ip == other.network_address._ip  # type: ignore[attr-defined]
                and self.netmask._ip == other.netmask._ip  # type: ignore[attr-defined]
            )
        except AttributeError:
            return NotImplemented  # type: ignore[return-value]

    ipaddress.IPv4Address.__hash__ = _ipv4_hash  # type: ignore[method-assign, assignment]
    ipaddress.IPv6Address.__hash__ = _ipv6_hash  # type: ignore[method-assign, assignment]
    ipaddress.IPv4Address.__eq__ = _ipv4_eq  # type: ignore[method-assign, assignment]
    ipaddress.IPv6Address.__eq__ = _ipv6_eq  # type: ignore[method-assign, assignment]
    ipaddress.IPv4Network.__eq__ = _net_eq  # type: ignore[method-assign, assignment]
    ipaddress.IPv6Network.__eq__ = _net_eq  # type: ignore[method-assign, assignment]


_install_fast_address_hashes()

#: The NAT64/DNS64 well-known prefix of RFC 6052 §2.1, as used by the
#: paper's 5G mobile gateway ("NAT64 using the well-known prefix of
#: 64:ff9b::/96 was functional on the 5G mobile Internet gateway").
WELL_KNOWN_NAT64_PREFIX = IPv6Network("64:ff9b::/96")

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2})([-:]?)([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})\2([0-9A-Fa-f]{2})$")


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit IEEE 802 MAC address.

    Accepts and produces the canonical colon-separated lowercase form,
    e.g. ``"00:00:59:aa:c6:ab"`` (the Windows XP NIC of the paper's
    figure 7 shows ``00-00-59-AA-C6-AB``).
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < 1 << 48:
            raise ValueError(f"MAC address out of range: {self.value:#x}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        """Parse ``aa:bb:cc:dd:ee:ff`` or ``aa-bb-cc-dd-ee-ff`` or bare hex."""
        m = _MAC_RE.match(text.strip())
        if not m:
            raise ValueError(f"invalid MAC address: {text!r}")
        digits = "".join(g for i, g in enumerate(m.groups(), 1) if i != 2)
        return cls(int(digits, 16))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        if len(data) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(6, "big")

    @property
    def is_multicast(self) -> bool:
        """True when the I/G bit of the first octet is set."""
        return bool((self.value >> 40) & 0x01)

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    @property
    def is_locally_administered(self) -> bool:
        """True when the U/L bit of the first octet is set."""
        return bool((self.value >> 40) & 0x02)

    def __str__(self) -> str:
        b = self.to_bytes()
        return ":".join(f"{octet:02x}" for octet in b)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


#: The all-ones Ethernet broadcast address ``ff:ff:ff:ff:ff:ff``.
MAC_BROADCAST = MacAddress((1 << 48) - 1)


# The helpers below are pure functions of hashable inputs, called on
# every NDP/SLAAC event for a small, stable population of addresses —
# memoizing them removes repeated IPv6Address construction from the
# simulator's hot path.  A simulation's address universe is bounded by
# its host count, so the caches stay small.
@lru_cache(maxsize=None)
def eui64_interface_id(mac: MacAddress) -> int:
    """Expand a 48-bit MAC into a modified EUI-64 interface identifier.

    RFC 4291 appendix A: insert ``ff:fe`` between the OUI and NIC halves,
    then flip the universal/local bit.  E.g. the paper's Windows XP host
    ``00:00:59:aa:c6:ab`` yields interface id ``0200:59ff:feaa:c6ab``
    (visible in figure 7 as ``fd00:976a::200:59ff:feaa:c6a3``-style
    addresses).
    """
    b = mac.to_bytes()
    eui = bytes([b[0] ^ 0x02]) + b[1:3] + b"\xff\xfe" + b[3:6]
    return int.from_bytes(eui, "big")


@lru_cache(maxsize=None)
def link_local_from_mac(mac: MacAddress) -> IPv6Address:
    """Construct the ``fe80::/64`` link-local address from a MAC (EUI-64)."""
    return IPv6Address((0xFE80 << 112) | eui64_interface_id(mac))


@lru_cache(maxsize=None)
def slaac_address(prefix: IPv6Network, mac: MacAddress) -> IPv6Address:
    """Form a SLAAC address from a /64 on-link prefix and a MAC.

    The paper's clients obtain their GUAs this way from the 5G gateway's
    RA, and their ULA management addresses from the managed switch's
    low-priority ``fd00:976a::/64`` RA.
    """
    if prefix.prefixlen != 64:
        raise ValueError(f"SLAAC requires a /64 prefix, got /{prefix.prefixlen}")
    return IPv6Address(int(prefix.network_address) | eui64_interface_id(mac))


_SOLICITED_NODE_BASE = int(IPv6Address("ff02::1:ff00:0"))


@lru_cache(maxsize=None)
def solicited_node_multicast(addr: IPv6Address) -> IPv6Address:
    """The solicited-node multicast address ``ff02::1:ffXX:XXXX`` (RFC 4291)."""
    low24 = int(addr) & 0xFFFFFF
    return IPv6Address(_SOLICITED_NODE_BASE | low24)


@lru_cache(maxsize=None)
def multicast_mac_for_ipv6(group: IPv6Address) -> MacAddress:
    """Map an IPv6 multicast group to its ``33:33:xx:xx:xx:xx`` MAC."""
    if not group.is_multicast:
        raise ValueError(f"{group} is not an IPv6 multicast group")
    low32 = int(group) & 0xFFFFFFFF
    return MacAddress((0x3333 << 32) | low32)


# --------------------------------------------------------------------------
# RFC 6052 IPv4-embedded IPv6 addresses
# --------------------------------------------------------------------------

#: Prefix lengths RFC 6052 §2.2 defines embedding layouts for.
RFC6052_PREFIX_LENGTHS = (32, 40, 48, 56, 64, 96)


@lru_cache(maxsize=None)
def embed_ipv4_in_nat64(
    ipv4: IPv4Address, prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX
) -> IPv6Address:
    """Embed an IPv4 address into a NAT64/DNS64 prefix per RFC 6052 §2.2.

    With the well-known ``64:ff9b::/96`` prefix this is the synthesis the
    paper's DNS64 performs: ``sc24.supercomputing.org``'s A record
    ``190.92.158.4`` becomes ``64:ff9b::be5c:9e04`` (figure 7).

    Bits 64..71 of the result (octet "u") must be zero for prefixes
    shorter than /96; the embedding skips over them.
    """
    plen = prefix.prefixlen
    if plen not in RFC6052_PREFIX_LENGTHS:
        raise ValueError(
            f"RFC 6052 supports prefix lengths {RFC6052_PREFIX_LENGTHS}, got /{plen}"
        )
    pfx = int(prefix.network_address).to_bytes(16, "big")
    v4 = ipv4.packed
    out = bytearray(pfx)
    if plen == 96:
        out[12:16] = v4
    elif plen == 64:
        out[9:13] = v4
    elif plen == 56:
        out[7] = v4[0]
        out[9:12] = v4[1:4]
    elif plen == 48:
        out[6:8] = v4[0:2]
        out[9:11] = v4[2:4]
    elif plen == 40:
        out[5:8] = v4[0:3]
        out[9] = v4[3]
    elif plen == 32:
        out[4:8] = v4
    out[8] = 0  # the "u" octet, always zero
    return IPv6Address(bytes(out))


def extract_ipv4_from_nat64(
    ipv6: IPv6Address, prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX
) -> IPv4Address:
    """Recover the embedded IPv4 address from an RFC 6052 address.

    Raises :class:`ValueError` when ``ipv6`` is not inside ``prefix``.
    """
    if ipv6 not in prefix:
        raise ValueError(f"{ipv6} is not within NAT64 prefix {prefix}")
    plen = prefix.prefixlen
    if plen not in RFC6052_PREFIX_LENGTHS:
        raise ValueError(
            f"RFC 6052 supports prefix lengths {RFC6052_PREFIX_LENGTHS}, got /{plen}"
        )
    b = ipv6.packed
    if plen == 96:
        v4 = b[12:16]
    elif plen == 64:
        v4 = b[9:13]
    elif plen == 56:
        v4 = bytes([b[7]]) + b[9:12]
    elif plen == 48:
        v4 = b[6:8] + b[9:11]
    elif plen == 40:
        v4 = b[5:8] + bytes([b[9]])
    else:  # 32
        v4 = b[4:8]
    return IPv4Address(v4)


def is_nat64_synthesized(addr: IPv6Address, prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX) -> bool:
    """True when ``addr`` lies inside the given NAT64 translation prefix."""
    return addr in prefix


# --------------------------------------------------------------------------
# Classification helpers used by RFC 6724 and the testbed reports
# --------------------------------------------------------------------------

_ULA = IPv6Network("fc00::/7")
_GUA = IPv6Network("2000::/3")


def is_ula(addr: IPv6Address) -> bool:
    """True for RFC 4193 unique local addresses (``fc00::/7``).

    The paper's 5G gateway advertised the (dead) ULA resolvers
    ``fd00:976a::9`` and ``fd00:976a::10``.
    """
    return addr in _ULA


def is_gua(addr: IPv6Address) -> bool:
    """True for globally-routable unicast (``2000::/3``)."""
    return addr in _GUA


_LOOPBACK_V6 = IPv6Address("::1")
_SITE_LOCAL = IPv6Network("fec0::/10")
_LINK_LOCAL_V4 = IPv4Network("169.254.0.0/16")
_LOOPBACK_NET_V4 = IPv4Network("127.0.0.0/8")


@lru_cache(maxsize=None)
def ipv6_scope(addr: IPv6Address) -> int:
    """RFC 6724 §3.1 scope value for comparison purposes.

    Returns the multicast scope field for multicast addresses, and the
    conventional mapping (link-local=0x2, site/ULA=0x5, global=0xE) for
    unicast.  The loopback address has link-local scope.
    """
    if addr.is_multicast:
        return addr.packed[1] & 0x0F
    if addr.is_link_local or addr == _LOOPBACK_V6:
        return 0x02
    if is_ula(addr):
        # RFC 6724 treats ULAs as *global* scope but gives them their own
        # policy-table label; site-local (deprecated) is scope 5.
        return 0x0E
    if addr in _SITE_LOCAL:
        return 0x05
    return 0x0E


@lru_cache(maxsize=None)
def ipv4_scope(addr: IPv4Address) -> int:
    """Scope of an IPv4 address mapped into the IPv6 comparison space."""
    if addr in _LINK_LOCAL_V4 or addr in _LOOPBACK_NET_V4:
        return 0x02
    return 0x0E
