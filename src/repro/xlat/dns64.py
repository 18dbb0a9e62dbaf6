"""DNS64 (RFC 6147): AAAA synthesis from A records.

The "healthy" Raspberry Pi BIND9 DNS64 of the paper's testbed.  When an
AAAA query yields no native AAAA records, the resolver queries for A
records and synthesizes AAAA answers inside the NAT64 prefix.  Native
AAAA answers pass through untouched, so dual-stack destinations are
reached natively.

A key paper observation is reproduced faithfully: a DNS64 *also answers
plain A queries normally* — which is why Windows XP, speaking only to
IPv4 resolver addresses, "can work well in the testbed thanks to the
poisoned IPv4 DNS64 server continuing to provide valid IPv6 AAAA DNS
query answers" (figure 7).  The healthy DNS64 serves both families; the
*poisoned* variant (:mod:`repro.core.intervention`) wraps this class and
overrides only the A path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.dns.message import DnsMessage, ResourceRecord
from repro.dns.rdata import AAAA, RCode, RRType
from repro.dns.server import DnsServer
from repro.dns.zone import Zone
from repro.net.addresses import (
    embed_ipv4_in_nat64,
    IPv4Address,
    IPv4Network,
    IPv6Network,
    WELL_KNOWN_NAT64_PREFIX,
)

__all__ = ["DNS64Resolver", "EXCLUDE_V4", "SYNTHETIC_TTL"]

#: A-record networks excluded from synthesis (RFC 6147 §5.1.4 — e.g.
#: RFC 1918 space that the NAT64 cannot reach).
EXCLUDE_V4 = (
    IPv4Network("10.0.0.0/8"),
    IPv4Network("127.0.0.0/8"),
    IPv4Network("169.254.0.0/16"),
)
#: The TTL cap of a synthesized AAAA record.
SYNTHETIC_TTL = 300


class DNS64Resolver(DnsServer):
    """An authoritative-data-backed DNS64 recursive resolver.

    In the simulation its zones hold the whole simulated internet's
    records, so it stands in for "BIND9 with recursion + DNS64" without
    modelling iterative resolution (which the paper does not exercise).
    It synthesizes only when a name has no native AAAA records, RFC
    6147's default.
    """

    def __init__(
        self,
        zones: Sequence[Zone] = (),
        prefix: IPv6Network = WELL_KNOWN_NAT64_PREFIX,
        name: str = "dns64",
    ) -> None:
        super().__init__(zones, name)
        self._prefix = prefix
        self.synthesized = 0
        self.passed_through = 0

    _CACHE_COUNTERS = ("synthesized", "passed_through")

    @property
    def prefix(self) -> IPv6Network:
        """The NAT64 prefix synthesized addresses embed; read-only, so
        cached answers never outlive it."""
        return self._prefix

    def respond(self, query: DnsMessage, client: Optional[object] = None) -> DnsMessage:
        question = query.question
        if question.rrtype != RRType.AAAA:
            # A queries (and everything else) answer normally — the
            # behaviour that keeps IPv4-resolver clients like Windows XP
            # working (paper figure 7).
            return super().respond(query, client)
        native = super().respond(query, client)
        if native.answers:  # a zone answers records of the asked type only
            self.passed_through += 1
            return native
        if native.rcode == RCode.NXDOMAIN:
            # RFC 6147 §5.1.2: NXDOMAIN means the *name* does not exist —
            # no synthesis from a sibling A record is attempted.
            return native
        # Query the A records and synthesize.
        a_query = DnsMessage.query(question.name, RRType.A, ident=query.header.ident)
        a_response = super().respond(a_query, client)
        synthesized: List[ResourceRecord] = []
        for rr in a_response.answers:
            address: IPv4Address = rr.rdata.address
            if any(address in net for net in EXCLUDE_V4):
                continue
            synthesized.append(
                ResourceRecord(
                    rr.name,
                    RRType.AAAA,
                    min(rr.ttl, SYNTHETIC_TTL),
                    AAAA(embed_ipv4_in_nat64(address, self._prefix)),
                )
            )
        if not synthesized:
            return native
        self.synthesized += len(synthesized)
        return query.response(
            answers=tuple(synthesized),
            rcode=RCode.NOERROR,
            recursion_available=True,
        )
