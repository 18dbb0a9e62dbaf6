"""A test-ipv6.com mirror: the service and the client-side test runner.

The real site runs ~10 browser subtests against specially-provisioned
hostnames (``ipv4.<domain>`` has only an A record, ``ipv6.<domain>``
only a AAAA, the apex has both) and scores "your IPv6 readiness" out of
10.  SCinet ran a mirror of it at SC23 (paper figures 5 and 11).

This module reproduces both halves:

- :class:`TestIpv6Mirror` — the server, virtual-hosting the three test
  names on dual-stack addresses and echoing back which address family
  each probe actually arrived over (``x-client-family``);
- :func:`run_test_ipv6` — the "browser JS": runs the ten subtests
  through a client device's own resolver and stack and records, per
  subtest, whether the *stock* pass criterion held (page fetched, served
  by the expected site) and what the transport truly was.

The stock criterion cannot see the transport family — which is exactly
the figure-5 bug: with a poisoned resolver redirecting every A record to
the mirror itself, an IPv4-only client "passes" the IPv6 subtests over
IPv4 and erroneously scores 10/10.  The scorers in
:mod:`repro.core.scoring` consume the same :class:`TestReport` and show
both the buggy and the paper-proposed fixed behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.net.addresses import IPv4Address, IPv6Address
from repro.services.http import HttpRequest, HttpResponse
from repro.services.web import WebService
from repro.sim.engine import EventEngine

__all__ = ["TestIpv6Mirror", "SubtestResult", "TestReport", "run_test_ipv6", "SUBTEST_NAMES"]

AnyAddress = Union[IPv4Address, IPv6Address]

#: Subtests that feed the headline x/10 score.  The literal fetches and
#: the preference observation are *diagnostic* — on the real site they
#: surface as warnings without denting the big number, which is how an
#: IPv6-disabled client behind a self-pointing poisoned resolver could
#: show the paper's figure-5 "10/10".
SCORED_SUBTESTS = frozenset(
    {
        "a_record_fetch",
        "aaaa_record_fetch",
        "dualstack_fetch",
        "v6_mtu",
        "no_broken_fallback",
    }
)

#: The ten subtests, in execution order.
SUBTEST_NAMES = (
    "a_record_fetch",          # 1: page via the A-only hostname
    "aaaa_record_fetch",       # 2: page via the AAAA-only hostname
    "dualstack_fetch",         # 3: page via the dual-stack apex
    "v4_literal_fetch",        # 4: page via the bare IPv4 literal
    "v6_literal_fetch",        # 5: page via the bare IPv6 literal
    "dns_resolves_a",          # 6: resolver returns an A for ipv4.<d>
    "dns_resolves_aaaa",       # 7: resolver returns a AAAA for ipv6.<d>
    "v6_mtu",                  # 8: large (multi-segment) body over the v6 path
    "dualstack_prefers_v6",    # 9: the apex fetch used IPv6
    "no_broken_fallback",      # 10: the apex fetch completed at all
)


class TestIpv6Mirror(WebService):
    """The mirror service: one dual-stack server, three virtual hosts."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        engine: EventEngine,
        domain: str = "test-ipv6.com",
        ipv4: IPv4Address = IPv4Address("216.218.228.115"),
        ipv6: IPv6Address = IPv6Address("2001:470:1:18::115"),
    ) -> None:
        super().__init__(engine, "testipv6-mirror", ipv4=ipv4, ipv6=ipv6)
        self.domain = domain.lower()
        self.mirror_v4 = ipv4
        self.mirror_v6 = ipv6
        for site in (self.domain, f"ipv4.{self.domain}", f"ipv6.{self.domain}"):
            self.add_site(site, self._probe_page)
        self.default_site = self.domain

    @property
    def hostname_v4only(self) -> str:
        return f"ipv4.{self.domain}"

    @property
    def hostname_v6only(self) -> str:
        return f"ipv6.{self.domain}"

    def _probe_page(self, request: HttpRequest) -> HttpResponse:
        family = "ipv6" if isinstance(request.client_addr, IPv6Address) else "ipv4"
        site = request.host.lower().split(":")[0]
        if site not in self._sites:
            # A redirected fetch for some other site landed here (the
            # poisoned-DNS case): identify honestly as the apex.
            site = self.domain
        body = b"ok " + site.encode()
        if request.path == "/mtu":
            body = body + b" " + b"M" * 1800  # forces multi-segment delivery
        return HttpResponse(
            200,
            {
                "x-served-by": site,
                "x-client-family": family,
                "x-client-address": str(request.client_addr),
                "content-type": "text/plain",
            },
            body,
        )


@dataclass
class SubtestResult:
    name: str
    passed: bool  # the STOCK criterion (page fetched from the right site)
    family_seen: Optional[str] = None  # what transport actually carried it
    used_address: Optional[AnyAddress] = None  # destination the client hit
    #: the client address the *server* observed (post-NAT) — what the
    #: RFC 8925-aware scorer classifies NAT64 egress from.
    server_observed_address: Optional[AnyAddress] = None
    detail: str = ""


@dataclass
class TestReport:
    """Everything one test-ipv6 run observed about a client."""

    __test__ = False  # not a pytest class, despite the name

    client_name: str
    mirror_domain: str
    subtests: List[SubtestResult] = field(default_factory=list)

    def subtest(self, name: str) -> Optional[SubtestResult]:
        for s in self.subtests:
            if s.name == name:
                return s
        return None

    @property
    def stock_score(self) -> int:
        """The mirror's out-of-the-box headline score, out of 10.

        Only the *scored* subtests count (literal fetches and the
        preference check are diagnostics, as on the real site), scaled
        to 10 — transport family unexamined: the figure-5 logic.
        """
        scored = [s for s in self.subtests if s.name in SCORED_SUBTESTS]
        if not scored:
            return 0
        passed = sum(1 for s in scored if s.passed)
        return round(10 * passed / len(scored))

    @property
    def max_score(self) -> int:
        return 10


def run_test_ipv6(client, mirror: TestIpv6Mirror) -> TestReport:
    """Run the ten subtests from ``client`` (a
    :class:`repro.clients.device.ClientDevice`) against ``mirror``.

    The client's own resolver, suffix policy and address-selection rules
    are used for every step — the whole point is observing how a given
    OS profile behaves behind a given DNS configuration.
    """
    # Late imports to stay layer-clean.
    from repro.dns.rdata import RRType
    from repro.dns.resolver import DnsTransportError

    report = TestReport(client_name=client.name, mirror_domain=mirror.domain)

    def observed_address(response: Optional[HttpResponse]) -> Optional[AnyAddress]:
        if response is None:
            return None
        raw = response.headers.get("x-client-address")
        if not raw or raw == "None":
            return None
        try:
            return IPv6Address(raw) if ":" in raw else IPv4Address(raw)
        except ValueError:
            return None

    def fetch_subtest(name: str, hostname: str, path: str = "/") -> SubtestResult:
        outcome = client.fetch(hostname, path=path)
        expected = hostname.lower()
        passed = (
            outcome.response is not None
            and outcome.response.status == 200
            and outcome.response.headers.get("x-served-by", "") == expected
        )
        return SubtestResult(
            name=name,
            passed=passed,
            family_seen=(outcome.response or HttpResponse(0)).headers.get("x-client-family"),
            used_address=outcome.address,
            server_observed_address=observed_address(outcome.response),
            detail=outcome.detail,
        )

    # 1-3: hostname fetches.
    report.subtests.append(fetch_subtest("a_record_fetch", mirror.hostname_v4only))
    report.subtests.append(fetch_subtest("aaaa_record_fetch", mirror.hostname_v6only))
    ds = fetch_subtest("dualstack_fetch", mirror.domain)
    report.subtests.append(ds)

    # 4-5: literal fetches bypass DNS entirely.
    lit4 = client.fetch_literal(mirror.mirror_v4, mirror.domain)
    report.subtests.append(
        SubtestResult(
            "v4_literal_fetch",
            lit4.response is not None and lit4.response.status == 200,
            family_seen=(lit4.response or HttpResponse(0)).headers.get("x-client-family"),
            used_address=lit4.address,
            server_observed_address=observed_address(lit4.response),
            detail=lit4.detail,
        )
    )
    lit6 = client.fetch_literal(mirror.mirror_v6, mirror.domain)
    report.subtests.append(
        SubtestResult(
            "v6_literal_fetch",
            lit6.response is not None and lit6.response.status == 200,
            family_seen=(lit6.response or HttpResponse(0)).headers.get("x-client-family"),
            used_address=lit6.address,
            server_observed_address=observed_address(lit6.response),
            detail=lit6.detail,
        )
    )

    # 6-7: resolver checks.
    try:
        a_result = client.resolver.resolve(mirror.hostname_v4only, RRType.A)
        a_ok = a_result.ok
        a_detail = f"rcode={a_result.rcode}"
    except DnsTransportError as exc:  # resolver dead
        a_ok, a_detail = False, f"error={exc}"
    report.subtests.append(SubtestResult("dns_resolves_a", a_ok, detail=a_detail))
    try:
        aaaa_result = client.resolver.resolve(mirror.hostname_v6only, RRType.AAAA)
        aaaa_ok = aaaa_result.ok
        aaaa_detail = f"rcode={aaaa_result.rcode}"
    except DnsTransportError as exc:
        aaaa_ok, aaaa_detail = False, f"error={exc}"
    report.subtests.append(SubtestResult("dns_resolves_aaaa", aaaa_ok, detail=aaaa_detail))

    # 8: large body over the v6-only hostname.
    mtu = fetch_subtest("v6_mtu", mirror.hostname_v6only, path="/mtu")
    if mtu.passed and mtu.family_seen:
        body_ok = True  # server always sends the big body; passing means it arrived
        mtu.passed = body_ok
    report.subtests.append(mtu)

    # 9-10: derived from the dual-stack fetch.
    report.subtests.append(
        SubtestResult(
            "dualstack_prefers_v6",
            ds.passed and ds.family_seen == "ipv6",
            family_seen=ds.family_seen,
            detail="apex fetch family",
        )
    )
    report.subtests.append(
        SubtestResult(
            "no_broken_fallback",
            ds.passed,
            family_seen=ds.family_seen,
            detail="apex fetch completed",
        )
    )
    return report
