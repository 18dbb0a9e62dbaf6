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

from typing import Callable, Optional

from repro._compat import slotted_dataclass
from repro.dns.message import DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.rdata import A, RCode, RRType
from repro.dns.server import ForwardingDnsServer
from repro.net.addresses import IPv4Address

__all__ = ["InterventionConfig", "PoisonedDNSServer"]


@slotted_dataclass(frozen=True)
class InterventionConfig:
    """The two-line dnsmasq configuration, as data.

    ``poison_address`` — where every A answer points (ip6.me's IPv4 in
    the final testbed; the first iteration used test-ipv6.com's, which
    produced the erroneous figure-5 score).  The ``server=`` line is
    the ``upstream`` a :class:`PoisonedDNSServer` is built with.
    """

    poison_address: IPv4Address
    poison_ttl: int = 60


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
        self._config = config
        self.poison_answers = 0

    def _forwards(self, question: DnsQuestion) -> bool:
        # The address= line answers A queries; the server= line
        # forwards everything else.
        return question.rrtype != RRType.A

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
