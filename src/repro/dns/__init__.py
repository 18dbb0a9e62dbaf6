"""The DNS the testbed serves: names with compression, messages, A, AAAA
and SOA record data (every other type carried opaquely), authoritative
zones that only grow, caching and a suffix-search-list-aware stub
resolver.

This is the substrate the paper's contribution manipulates: the healthy
DNS64 (:class:`repro.xlat.dns64.DNS64Resolver`), the dnsmasq-style
poisoned server (:class:`repro.core.intervention.PoisonedDNSServer`) and
the RPZ alternative (:class:`repro.core.rpz.RPZPolicyServer`) all speak
the wire format defined here.
"""

from repro.dns.cache import DnsCache
from repro.dns.message import DnsHeader, DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, AAAA, OpaqueRData, RCode, RRClass, RRType, SOA
from repro.dns.resolver import DnsTransportError, ResolutionResult, ResolverConfig, StubResolver
from repro.dns.server import DnsServer, ForwardingDnsServer
from repro.dns.zone import Zone, ZoneError

__all__ = [
    "DnsName",
    "RRType",
    "RRClass",
    "RCode",
    "A",
    "AAAA",
    "SOA",
    "OpaqueRData",
    "DnsHeader",
    "DnsQuestion",
    "ResourceRecord",
    "DnsMessage",
    "Zone",
    "ZoneError",
    "DnsCache",
    "StubResolver",
    "ResolverConfig",
    "ResolutionResult",
    "DnsTransportError",
    "DnsServer",
    "ForwardingDnsServer",
]
