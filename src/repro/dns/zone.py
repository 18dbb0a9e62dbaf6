"""Authoritative zone data.

The simulated internet's domains (``sc24.supercomputing.org``, ``ip6.me``,
``test-ipv6.com``, ``vpn.anl.gov``, …) are served from :class:`Zone`
instances held by the healthy resolver; the poisoned server deliberately
bypasses this lookup for A queries — that asymmetry *is* the paper's
mechanism.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.dns.message import ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, RCode, RRType, SOA
from repro.net.addresses import IPv4Address, IPv6Address

if TYPE_CHECKING:
    from repro.dns.server import DnsServer

__all__ = ["Zone", "ZoneError", "LookupResult"]


class ZoneError(Exception):
    """Raised for a name outside the zone."""


@dataclass
class LookupResult:
    """Outcome of a zone lookup.

    ``rcode`` distinguishes NXDOMAIN (name does not exist) from NOERROR
    with no records (name exists but has no records of that type) —
    the distinction the dnsmasq-style poisoner erases and the RPZ
    alternative preserves (paper figure 9 and §VI).
    """

    rcode: int
    records: List[ResourceRecord] = field(default_factory=list)


class Zone:
    """A single authoritative zone: an apex name, a SOA and a record set
    that only grows.

    Besides the records themselves the zone keeps one index, keyed by a
    name's label tuple (hashed in C, and sliced to reach ancestors):
    ``_touched`` maps every name that exists in the zone — each owner
    and each of its ancestors up to the apex, so empty non-terminals
    exist too — to the :attr:`version` of the last record added at or
    below it (see :meth:`touched`).  Records are never removed, so a
    name exists from its first record on, for good.

    Every addition goes through :meth:`_mutated`, the one writer of the
    read-only :attr:`version`.  It also clears the memoized cache epoch
    of every server serving the zone, so a server's response cache never
    re-reads the versions on a hit.  The zone holds those servers as weak
    references, in registration order, and drops a server's reference
    once the server is gone.
    """

    def __init__(self, origin, soa: Optional[SOA] = None) -> None:
        self.origin = DnsName(origin)
        self.soa = soa or SOA(
            mname=self.origin.child("ns1"),
            rname=DnsName("hostmaster").concatenate(self.origin),
            serial=2024110100,
        )
        self._records: Dict[Tuple[DnsName, int], List[ResourceRecord]] = {}
        self._touched: Dict[Tuple[str, ...], int] = {}
        self._version = 0
        #: The servers serving this zone (see :meth:`_watch`).
        self._watchers: List["weakref.ref[DnsServer]"] = []
        self.add(self.origin, RRType.SOA, self.soa, ttl=3600)

    @property
    def version(self) -> int:
        """Advanced by every mutation; response caches key on it."""
        return self._version

    def _watch(self, server: "DnsServer") -> None:
        """Clear ``server``'s cache epoch memo on every later mutation,
        for as long as ``server`` lives."""
        self._watchers = [ref for ref in self._watchers if ref() is not None]
        self._watchers.append(weakref.ref(server))

    # -- building -----------------------------------------------------------

    def add(self, name, rrtype: int, rdata, ttl: int = 300) -> "Zone":
        """Add one record. Returns self for chaining."""
        dname = DnsName(name)
        if not dname.is_subdomain_of(self.origin):
            raise ZoneError(f"{dname} is not within zone {self.origin}")
        record = ResourceRecord(dname, rrtype, ttl, rdata)
        self._records.setdefault((dname, rrtype), []).append(record)
        self._mutated(dname)
        return self

    def add_a(self, name, address, ttl: int = 300) -> "Zone":
        if not isinstance(address, IPv4Address):  # a string, or the wrong family
            address = IPv4Address(str(address))
        return self.add(name, RRType.A, A(address), ttl)

    def add_aaaa(self, name, address, ttl: int = 300) -> "Zone":
        if not isinstance(address, IPv6Address):
            address = IPv6Address(str(address))
        return self.add(name, RRType.AAAA, AAAA(address), ttl)

    def _mutated(self, owner: DnsName) -> None:
        """Record one addition at ``owner``: advance :attr:`version`,
        clear the cache epoch memo of each watching server, and stamp
        ``owner`` and each ancestor up to the origin with the new
        version."""
        self._version = version = self._version + 1
        live = []
        for ref in self._watchers:
            server = ref()
            if server is not None:
                server._forget_epoch()
                live.append(ref)
        self._watchers = live
        touched = self._touched
        labels = owner.labels
        for start in range(len(labels) - len(self.origin.labels) + 1):
            touched[labels[start:]] = version

    def touched(self, labels: Tuple[str, ...]) -> int:
        """The version of the last addition at or below the name with
        these labels, or 0 if none ever was.

        A lookup reads only the records at its name and whether the name
        exists, so its result is the same at every version from
        ``touched(labels)`` on."""
        return self._touched.get(labels, 0)

    # -- lookup ---------------------------------------------------------------

    def covers(self, name) -> bool:
        """True when this zone is authoritative for ``name``."""
        return DnsName(name).is_subdomain_of(self.origin)

    def lookup(self, name, rrtype: int) -> LookupResult:
        """Authoritative lookup: the ``rrtype`` records at ``name``;
        NOERROR with none when the name exists without them."""
        dname = DnsName(name)
        if not self.covers(dname):
            raise ZoneError(f"{dname} is out of zone {self.origin}")
        records = self._records.get((dname, rrtype))
        if records:
            return LookupResult(RCode.NOERROR, list(records))
        if dname.labels in self._touched:
            return LookupResult(RCode.NOERROR, [])
        return LookupResult(RCode.NXDOMAIN, [])

    def negative_soa(self) -> ResourceRecord:
        """The SOA record placed in the authority section of negative answers."""
        return ResourceRecord(self.origin, RRType.SOA, self.soa.minimum, self.soa)

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())

    def __repr__(self) -> str:
        return f"Zone({self.origin}, {len(self)} records)"
