"""The BIND9 Response Policy Zone alternative (paper §VII).

"Further improvements such as replacing the dnsmasq configuration for
poisoning DNS A records with a BIND9 Response Policy Zone may better
mitigate the poisoned A record answers for non-existent FQDNs issue,
but at the cost of additional configuration complexity."

:class:`RPZPolicyServer` realizes that improvement: it resolves every
query through the healthy upstream *first* and only rewrites A answers
that actually exist.  NXDOMAIN stays NXDOMAIN, so the figure-9 suffix
search behaves correctly again, while IPv4-only clients still land on
the intervention page for every *real* name they look up.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro._compat import slotted_dataclass
from repro.dns.message import DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.rdata import A, RCode, RRType
from repro.dns.server import ForwardingDnsServer
from repro.net.addresses import IPv4Address

__all__ = ["RpzConfig", "RPZPolicyServer"]


@slotted_dataclass(frozen=True)
class RpzConfig:
    """RPZ rewrite policy.

    The equivalent BIND9 policy zone is a wildcard ``*.`` CNAME to a
    local A record — more configuration surface than the two dnsmasq
    lines, which is the complexity trade-off the paper names.
    """

    poison_address: IPv4Address
    poison_ttl: int = 60


class RPZPolicyServer(ForwardingDnsServer):
    """Resolve upstream first; rewrite only *existing* A answers."""

    _CACHE_COUNTERS = ("forwarded", "rewritten", "passed_negative")

    def __init__(
        self,
        config: RpzConfig,
        upstream: Callable[[bytes], Optional[bytes]],
        name: str = "rpz-dns",
    ) -> None:
        super().__init__(upstream, (), name)
        self._config = config
        self.rewritten = 0
        self.passed_negative = 0

    def _forwards(self, question: DnsQuestion) -> bool:
        # Every answer is derived from a live upstream exchange — the
        # whole point of RPZ over dnsmasq — so a cached answer replays
        # only while the upstream repeats the reply it was built from.
        return True

    def _from_reply(
        self, query: DnsMessage, reply: DnsMessage, client: Optional[object]
    ) -> DnsMessage:
        question = query.question
        if (
            question.rrtype == RRType.A
            and reply.rcode == RCode.NOERROR
            and any(rr.rrtype == RRType.A for rr in reply.answers)
        ):
            self.rewritten += 1
            record = ResourceRecord(
                question.name, RRType.A, self.config.poison_ttl, A(self.config.poison_address)
            )
            self._log(question, RCode.NOERROR, "rpz", client)
            return query.response(answers=(record,), rcode=RCode.NOERROR)
        if question.rrtype == RRType.A and reply.rcode == RCode.NXDOMAIN:
            # The fix: nonexistent names stay nonexistent.
            self.passed_negative += 1
        return super()._from_reply(query, reply, client)
