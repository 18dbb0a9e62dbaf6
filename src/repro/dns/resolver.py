"""The client-side stub resolver.

This module models the OS behaviours the paper's results hinge on:

- **Resolver selection** — Windows 10 and most Linux distributions prefer
  the IPv6 RDNSS resolver learned from RAs over the DHCPv4-provided one
  (paper figure 10), while "some versions of Windows 11" and Windows XP
  use the IPv4 DHCP resolver — which is exactly the poisoned one.  The
  preference lives in :class:`ResolverConfig.server_order`.
- **Domain suffix search lists** — figure 9's
  ``vpn.anl.gov`` → ``vpn.anl.gov.rfc8925.com`` lookup comes from suffix
  appending; :class:`SearchOrder` models both the nslookup-style
  suffix-first behaviour and the conventional as-is-first (ndots) rule.
- **Negative answers** — NXDOMAIN vs NODATA is preserved end-to-end so the
  dnsmasq/RPZ difference (§VI) is observable.

The resolver is transport-agnostic: it sends wire bytes through a
callable ``transport(server, payload, timeout) -> Optional[bytes]``.  In
the simulator that callable injects a real UDP/IP/Ethernet packet and
pumps the event engine; in unit tests it can invoke a server directly.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from repro.dns.cache import DnsCache
from repro.dns.message import DnsMessage, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import RCode, RRType
from repro.net.addresses import IPv4Address, IPv6Address

__all__ = [
    "SearchOrder",
    "ResolverConfig",
    "ResolutionResult",
    "DnsTransportError",
    "StubResolver",
    "DNS_PORT",
]

DNS_PORT = 53

ServerAddress = Union[IPv4Address, IPv6Address]
Transport = Callable[[ServerAddress, bytes, float], Optional[bytes]]


class DnsTransportError(Exception):
    """No configured server produced a response (all timed out/unreachable)."""


class SearchOrder(enum.Enum):
    """How the suffix search list interacts with the literal name."""

    #: Try the name as-is first; append suffixes only on NXDOMAIN.  This is
    #: the glibc behaviour for names with >= ndots dots.
    AS_IS_FIRST = "as-is-first"
    #: Append suffixes first, fall back to the literal name.  Windows
    #: nslookup behaves this way for unqualified names, producing the
    #: figure 9 ``vpn.anl.gov.rfc8925.com`` query.
    SUFFIX_FIRST = "suffix-first"
    #: Never append suffixes (name treated as fully qualified).
    NEVER = "never"


@dataclass(frozen=True)
class ResolverConfig:
    """Stub resolver configuration, assembled from DHCPv4 and RA learning.

    ``server_order`` is the paper-critical knob: the concatenated list of
    resolver addresses in the order the OS consults them.  Client profiles
    (:mod:`repro.clients.profiles`) build it from their documented
    RDNSS-vs-DHCP preference.
    """

    servers: Sequence[ServerAddress] = ()
    search_domains: Sequence[str] = ()
    search_order: SearchOrder = SearchOrder.AS_IS_FIRST
    ndots: int = 1
    timeout: float = 2.0
    attempts: int = 2


@dataclass
class ResolutionResult:
    """The outcome of a full resolution: final rcode, answer records and
    the exact query name that produced them (exposing suffix appending)."""

    rcode: int
    records: List[ResourceRecord] = field(default_factory=list)
    queried_name: Optional[DnsName] = None
    server_used: Optional[ServerAddress] = None
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.rcode == RCode.NOERROR and bool(self.records)

    def addresses(self) -> List[Union[IPv4Address, IPv6Address]]:
        """All A/AAAA addresses among the answers, in answer order."""
        out = []
        for rr in self.records:
            if rr.rrtype in (RRType.A, RRType.AAAA):
                out.append(rr.rdata.address)
        return out


class StubResolver:
    """A caching stub resolver with search-list and server-failover logic."""

    def __init__(
        self,
        config: ResolverConfig,
        transport: Transport,
        clock: Callable[[], float],
        ident_source: Optional[Callable[[], int]] = None,
    ) -> None:
        self.config = config
        self._transport = transport
        self._cache = DnsCache(clock)
        self._ident = ident_source or itertools.count(1).__next__
        self.queries_sent = 0

    # -- public API ------------------------------------------------------------

    def resolve(self, name, rrtype: int = RRType.A) -> ResolutionResult:
        """Resolve ``name`` applying the configured suffix search order."""
        dname = DnsName(name)
        fully_qualified = str(name).rstrip().endswith(".")
        candidates = self._candidate_names(dname, fully_qualified)
        last = ResolutionResult(RCode.NXDOMAIN, queried_name=dname)
        for candidate in candidates:
            result = self._resolve_exact(candidate, rrtype)
            if result.rcode == RCode.NOERROR and result.records:
                return result
            if result.rcode not in (RCode.NXDOMAIN, RCode.NOERROR):
                return result  # SERVFAIL etc. stops the search
            last = result
        return last

    def resolve_exact(self, name, rrtype: int) -> ResolutionResult:
        """Resolve without any suffix processing."""
        return self._resolve_exact(DnsName(name), rrtype)

    def flush_cache(self) -> None:
        self._cache.flush()

    # -- internals -----------------------------------------------------------

    def _candidate_names(self, name: DnsName, fully_qualified: bool) -> List[DnsName]:
        cfg = self.config
        if fully_qualified or cfg.search_order is SearchOrder.NEVER or not cfg.search_domains:
            return [name]
        suffixed = [name.concatenate(DnsName(d)) for d in cfg.search_domains]
        has_enough_dots = name.label_count - 1 >= cfg.ndots
        if cfg.search_order is SearchOrder.SUFFIX_FIRST and not has_enough_dots:
            return suffixed + [name]
        if cfg.search_order is SearchOrder.SUFFIX_FIRST:
            # Multi-label names: nslookup still tries suffixes after failure,
            # but begins with the literal name.
            return [name] + suffixed
        if has_enough_dots:
            return [name] + suffixed
        return suffixed + [name]

    def _resolve_exact(self, name: DnsName, rrtype: int) -> ResolutionResult:
        cached = self._cache.get(name, rrtype)
        if cached is not None:
            return ResolutionResult(
                cached.rcode, list(cached.records), queried_name=name, from_cache=True
            )
        result = self._query_servers(name, rrtype)
        if result.rcode == RCode.NOERROR and result.records:
            self._cache.put_positive(name, rrtype, result.records)
        elif result.rcode in (RCode.NOERROR, RCode.NXDOMAIN):
            self._cache.put_negative(name, rrtype, result.rcode)
        return result

    def _query_servers(self, name: DnsName, rrtype: int) -> ResolutionResult:
        if not self.config.servers:
            raise DnsTransportError("no DNS servers configured")
        errors = []
        for attempt in range(self.config.attempts):
            for server in self.config.servers:
                ident = self._ident() & 0xFFFF
                query = DnsMessage.query(name, rrtype, ident=ident)
                self.queries_sent += 1
                raw = self._transport(server, query.encode(), self.config.timeout)
                if raw is None:
                    errors.append(f"{server}: timeout (attempt {attempt + 1})")
                    continue
                try:
                    response = DnsMessage.decode(raw)
                except ValueError as exc:
                    errors.append(f"{server}: malformed response ({exc})")
                    continue
                if response.header.ident != ident or not response.header.is_response:
                    errors.append(f"{server}: id mismatch")
                    continue
                return ResolutionResult(
                    response.rcode,
                    [rr for rr in response.answers if rr.rrtype == rrtype],
                    queried_name=name,
                    server_used=server,
                )
        raise DnsTransportError("; ".join(errors) or "no servers responded")
