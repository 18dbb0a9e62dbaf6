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
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.dns.message import ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, CNAME, RCode, RRType, SOA
from repro.net.addresses import IPv4Address, IPv6Address

if TYPE_CHECKING:
    from repro.dns.server import DnsServer

__all__ = ["Zone", "ZoneError", "LookupResult"]


class ZoneError(Exception):
    """Raised for structural zone problems (CNAME conflicts, out-of-zone names)."""


@dataclass
class LookupResult:
    """Outcome of a zone lookup.

    ``rcode`` distinguishes NXDOMAIN (name does not exist) from NOERROR
    with an empty answer (name exists but has no records of that type) —
    the distinction the dnsmasq-style poisoner erases and the RPZ
    alternative preserves (paper figure 9 and §VI).
    """

    rcode: int
    records: List[ResourceRecord] = field(default_factory=list)
    cname_chain: List[ResourceRecord] = field(default_factory=list)

    @property
    def answers(self) -> List[ResourceRecord]:
        return self.cname_chain + self.records


class Zone:
    """A single authoritative zone: an apex name, a SOA and a record set.

    Besides the records themselves the zone keeps three indexes, all
    keyed by a name's label tuple (hashed in C, and sliced to reach
    ancestors):

    * ``_below`` maps every name that exists in the zone to the number of
      records owned at or below it.  A name exists — answers NOERROR,
      possibly with no data — exactly while it has an entry; the apex and
      empty non-terminals exist because records below them are counted.
    * ``_touched`` maps every name a mutation ever reached — its owner and
      each ancestor, the names whose count it changed — to the
      :attr:`version` of the last such mutation (see :meth:`touched`).
    * ``_rrtypes`` lists the record types present at each owner, so a
      mutation touches only the types at its one name.

    Every mutation goes through :meth:`_mutated`, the one writer of the
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
        self._rrtypes: Dict[Tuple[str, ...], List[int]] = {}
        self._below: Dict[Tuple[str, ...], int] = {}
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
        rrtypes = self._rrtypes.get(dname.labels)
        if rrtype == RRType.CNAME and rrtypes and RRType.CNAME not in rrtypes:
            if dname != self.origin:
                raise ZoneError(f"CNAME at {dname} conflicts with existing records")
        record = ResourceRecord(dname, rrtype, ttl, rdata)
        if rrtypes is None:
            self._rrtypes[dname.labels] = [rrtype]
        elif rrtype not in rrtypes:
            rrtypes.append(rrtype)
        self._records.setdefault((dname, rrtype), []).append(record)
        self._mutated(dname, 1)
        return self

    def add_a(self, name, address, ttl: int = 300) -> "Zone":
        if not isinstance(address, IPv4Address):  # a string, or the wrong family
            address = IPv4Address(str(address))
        return self.add(name, RRType.A, A(address), ttl)

    def add_aaaa(self, name, address, ttl: int = 300) -> "Zone":
        if not isinstance(address, IPv6Address):
            address = IPv6Address(str(address))
        return self.add(name, RRType.AAAA, AAAA(address), ttl)

    def add_cname(self, name, target, ttl: int = 300) -> "Zone":
        return self.add(name, RRType.CNAME, CNAME(DnsName(target)), ttl)

    def remove(self, name, rrtype: Optional[int] = None) -> int:
        """Remove records at ``name`` (optionally one type). Returns count."""
        dname = DnsName(name)
        rrtypes = self._rrtypes.get(dname.labels)
        if not rrtypes:
            return 0
        doomed = list(rrtypes) if rrtype is None else [t for t in rrtypes if t == rrtype]
        removed = 0
        for t in doomed:
            removed += len(self._records.pop((dname, t)))
            rrtypes.remove(t)
        if not rrtypes:
            del self._rrtypes[dname.labels]
        if removed:
            self._mutated(dname, -removed)
        return removed

    def _mutated(self, owner: DnsName, delta: int) -> None:
        """Record one mutation that added ``delta`` records at ``owner``:
        advance :attr:`version`, clear the cache epoch memo of each
        watching server, add ``delta`` to ``owner`` and each ancestor up
        to the origin, and stamp each of them with the new version."""
        self._version = version = self._version + 1
        live = []
        for ref in self._watchers:
            server = ref()
            if server is not None:
                server._forget_epoch()
                live.append(ref)
        self._watchers = live
        below = self._below
        touched = self._touched
        labels = owner.labels
        for start in range(len(labels) - len(self.origin.labels) + 1):
            node = labels[start:]
            touched[node] = version
            count = below.get(node, 0) + delta
            if count:
                below[node] = count
            else:
                del below[node]

    def touched(self, labels: Tuple[str, ...]) -> int:
        """The version of the last mutation at or below the name with
        these labels, or 0 if none ever was.

        A lookup of a name that follows no CNAME reads only the records
        at that name and whether it exists, so its result is the same at
        every version from ``touched(labels)`` on."""
        return self._touched.get(labels, 0)

    # -- lookup ---------------------------------------------------------------

    def covers(self, name) -> bool:
        """True when this zone is authoritative for ``name``."""
        return DnsName(name).is_subdomain_of(self.origin)

    def lookup(self, name, rrtype: int, follow_cname: bool = True) -> LookupResult:
        """Authoritative lookup with CNAME chasing inside the zone."""
        dname = DnsName(name)
        if not self.covers(dname):
            raise ZoneError(f"{dname} is out of zone {self.origin}")
        chain: List[ResourceRecord] = []
        seen = set()
        while True:
            direct = self._records.get((dname, rrtype))
            if direct:
                return LookupResult(RCode.NOERROR, list(direct), chain)
            cname = self._records.get((dname, RRType.CNAME))
            if cname and rrtype != RRType.CNAME and follow_cname:
                if dname in seen:
                    return LookupResult(RCode.SERVFAIL, [], chain)
                seen.add(dname)
                chain.extend(cname)
                target = cname[0].rdata.target
                if not self.covers(target):
                    # Chain leaves the zone; resolver continues elsewhere.
                    return LookupResult(RCode.NOERROR, [], chain)
                dname = target
                continue
            if dname.labels in self._below:
                return LookupResult(RCode.NOERROR, [], chain)
            return LookupResult(RCode.NXDOMAIN, [], chain)

    def negative_soa(self) -> ResourceRecord:
        """The SOA record placed in the authority section of negative answers."""
        return ResourceRecord(self.origin, RRType.SOA, self.soa.minimum, self.soa)

    def iter_records(self) -> Iterable[ResourceRecord]:
        for records in self._records.values():
            yield from records

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())

    def __repr__(self) -> str:
        return f"Zone({self.origin}, {len(self)} records)"
