"""The poisoned IPv4 DNS server — the paper's central mechanism.

"To facilitate the DNS A record poisoning, dnsmasq was used with a two
line configuration: one line of ``address=/#/23.153.8.71`` to return any
A record query with an answer of ip6.me's IPv4 address, and another line
of ``server=192.168.12.251`` to forward all other requests (including
AAAA queries) to the testbed's healthy DNS64 server." (paper §VI)

:class:`PoisonedDNSServer` is that dnsmasq instance.  Its deliberate
dumbness is modelled exactly: "since dnsmasq has no logic to determine
if a real-world A record exists, it will answer A record queries even
for non-existent fully qualified domain names" — the figure-9 behaviour
the RPZ alternative (:mod:`repro.core.rpz`) later fixes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro._compat import slotted_dataclass
from repro.dns.message import DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import A, RCode, RRType
from repro.dns.server import ForwardingDnsServer
from repro.net.addresses import IPv4Address

__all__ = ["InterventionConfig", "PoisonedDNSServer"]


@slotted_dataclass(frozen=True)
class InterventionConfig:
    """The two-line dnsmasq configuration, as data.

    ``poison_address`` — where every A answer points (ip6.me's IPv4 in
    the final testbed; the first iteration used test-ipv6.com's, which
    produced the erroneous figure-5 score).

    ``exempt_domains`` — names the poison skips (empty in the paper's
    deployment; provided because a production rollout would likely
    whitelist its own helpdesk and the intervention landing page).
    """

    poison_address: IPv4Address
    poison_ttl: int = 60
    exempt_domains: Sequence[str] = ()

    def dnsmasq_lines(self, upstream: str) -> List[str]:
        """The equivalent dnsmasq configuration, for documentation."""
        lines = [f"address=/#/{self.poison_address}", f"server={upstream}"]
        for domain in self.exempt_domains:
            lines.insert(0, f"server=/{domain}/{upstream}")
        return lines

    @classmethod
    def from_dnsmasq_lines(cls, lines: Sequence[str]) -> "ParsedDnsmasqConfig":
        """Parse the paper's actual two-line dnsmasq configuration.

        Understands ``address=/#/<ip>`` (the poison), ``server=<ip>``
        (the upstream) and ``server=/<domain>/<ip>`` (per-domain
        upstream = exemption).  Returns the config plus the upstream
        address so a server can be wired up directly.
        """
        poison: Optional[IPv4Address] = None
        upstream: Optional[str] = None
        exempt: List[str] = []
        for raw in lines:
            line = raw.split("#", 1)[0].strip() if not raw.strip().startswith("address=") else raw.strip()
            if not line:
                continue
            if line.startswith("address=/#/"):
                poison = IPv4Address(line[len("address=/#/"):])
            elif line.startswith("address=/"):
                raise ValueError(
                    f"only the catch-all address=/#/ form is supported: {line!r}"
                )
            elif line.startswith("server=/"):
                _, domain, server = line.split("/", 2)
                del server  # exemptions go to the same upstream here
                exempt.append(domain)
            elif line.startswith("server="):
                upstream = line[len("server="):]
        if poison is None:
            raise ValueError("no address=/#/ poison line found")
        if upstream is None:
            raise ValueError("no server= upstream line found")
        return ParsedDnsmasqConfig(
            config=cls(poison_address=poison, exempt_domains=tuple(exempt)),
            upstream=upstream,
        )


@slotted_dataclass(frozen=True)
class ParsedDnsmasqConfig:
    """Result of :meth:`InterventionConfig.from_dnsmasq_lines`."""

    config: "InterventionConfig"
    upstream: str


class PoisonedDNSServer(ForwardingDnsServer):
    """dnsmasq with ``address=/#/<poison>`` + ``server=<healthy DNS64>``.

    - Every **A** query is answered immediately with the poison address —
      no existence check, NOERROR always.
    - Every other query type (critically AAAA) is forwarded verbatim to
      the healthy DNS64, so IPv6-capable clients that happen to use this
      resolver still get real (or DNS64-synthesized) AAAA answers —
      that's what keeps Windows XP working in figure 7.
    """

    _CACHE_COUNTERS = ("poison_answers", "forwarded")

    def __init__(
        self,
        config: InterventionConfig,
        upstream: Callable[[bytes], Optional[bytes]],
        name: str = "poisoned-dns",
    ) -> None:
        super().__init__(upstream, (), name)
        self.config = config
        self.poison_answers = 0

    def _forwards(self, question: DnsQuestion) -> bool:
        # The address= line answers A queries outside the exemptions;
        # the server= line forwards everything else.
        return question.rrtype != RRType.A or self._exempt(question.name)

    def respond(self, query: DnsMessage, client: Optional[object] = None) -> DnsMessage:
        question = query.question
        if self._forwards(question):
            return super().respond(query, client)
        self.poison_answers += 1
        record = ResourceRecord(
            question.name,
            RRType.A,
            self.config.poison_ttl,
            A(self.config.poison_address),
        )
        self._log(question, RCode.NOERROR, "poison", client)
        return query.response(answers=(record,), rcode=RCode.NOERROR)

    def _exempt(self, name: DnsName) -> bool:
        return any(
            name.is_subdomain_of(DnsName(domain)) for domain in self.config.exempt_domains
        )
