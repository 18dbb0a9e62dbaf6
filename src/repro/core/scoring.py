"""test-ipv6 scoring: the stock logic and the paper-proposed fix.

Paper §VI: "The most desired change is modifying the testing logic so
that only RFC8925 clients may receive a 10/10 score.  As of this
writing, properly configured dual-stack clients will also receive a
10/10 score under default test-ipv6.com testing logic."

Two scorers consume the same :class:`~repro.services.testipv6.TestReport`:

- :func:`score_stock` — one point per passing subtest, transport family
  unexamined.  Reproduces both the legitimate 10/10 for dual-stack and
  RFC 8925 clients *and* the erroneous figure-5 10/10 for an IPv4-only
  client behind a self-pointing poisoned resolver.
- :func:`score_rfc8925_aware` — the fix: (a) every subtest must have
  been carried by the family it claims to test (the mirror echoes the
  observed family, so this is enforceable server-side), and (b) the
  perfect score is reserved for clients whose IPv4-path traffic egressed
  through the NAT64 (i.e. CLAT/464XLAT — an RFC 8925 client), which the
  mirror recognizes by its configured NAT64 egress ranges.
"""

from __future__ import annotations

from dataclasses import field
from typing import List, Optional, Sequence, Union

from repro._compat import slotted_dataclass
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address
from repro.services.testipv6 import SubtestResult, TestReport

__all__ = ["ScoringContext", "ScoreBreakdown", "score_stock", "score_rfc8925_aware"]

#: Which family each subtest is *supposed* to exercise (None = either).
_EXPECTED_FAMILY = {
    "a_record_fetch": "ipv4",
    "aaaa_record_fetch": "ipv6",
    "dualstack_fetch": None,
    "v4_literal_fetch": "ipv4",
    "v6_literal_fetch": "ipv6",
    "dns_resolves_a": None,
    "dns_resolves_aaaa": None,
    "v6_mtu": "ipv6",
    "dualstack_prefers_v6": "ipv6",
    "no_broken_fallback": None,
}


@slotted_dataclass(frozen=True)
class ScoringContext:
    """Server-side knowledge available to the fixed scorer."""

    #: IPv4 ranges known to be NAT64 egress (the PLAT pool).  Traffic
    #: arriving from here over IPv4 came from a CLAT — an RFC 8925 client.
    nat64_egress: Sequence[IPv4Network] = ()

    def is_nat64_egress(self, address: Optional[Union[IPv4Address, IPv6Address]]) -> bool:
        if not isinstance(address, IPv4Address):
            return False
        return any(address in net for net in self.nat64_egress)


@slotted_dataclass()
class ScoreBreakdown:
    score: int
    max_score: int
    classified_as: str
    notes: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        return f"{self.score}/{self.max_score} ({self.classified_as})"


def score_stock(report: TestReport) -> ScoreBreakdown:
    """The mirror's default scoring — pass/fail only, family-blind."""
    return ScoreBreakdown(
        score=report.stock_score,
        max_score=report.max_score,
        classified_as="unclassified (stock logic)",
        notes=["transport family not verified (default test-ipv6.com logic)"],
    )


def score_rfc8925_aware(report: TestReport, context: ScoringContext) -> ScoreBreakdown:
    """The proposed SC24 mirror logic.

    Subtests only count when the observed transport family matches the
    family the subtest claims to exercise; and the 10/10 ceiling is
    reserved for RFC 8925 (CLAT-egress) clients — dual-stack clients cap
    at 9/10 with an explanatory note, exactly the differentiation the
    paper wants surfaced on the SC24 show floor.
    """
    notes: List[str] = []
    score = 0
    saw_native_v4 = False
    saw_clat_v4 = False
    for subtest in report.subtests:
        expected = _EXPECTED_FAMILY.get(subtest.name)
        verified = subtest.passed and (
            expected is None or subtest.family_seen == expected
        )
        if subtest.passed and not verified:
            notes.append(
                f"{subtest.name}: page loaded but over {subtest.family_seen}, "
                f"expected {expected} — not counted"
            )
        if verified:
            score += 1
        if subtest.family_seen == "ipv4" and subtest.passed:
            # Where did the v4-path traffic egress?
            v4_seen = _observed_v4(subtest)
            if context.is_nat64_egress(v4_seen):
                saw_clat_v4 = True
            elif v4_seen is not None:
                saw_native_v4 = True

    if saw_clat_v4 and not saw_native_v4:
        classification = "rfc8925 (IPv6-only with CLAT)"
    elif saw_native_v4 and score >= 8:
        classification = "dual-stack"
    elif score == 0:
        classification = "no working configuration"
    elif not saw_native_v4 and not saw_clat_v4:
        classification = "ipv6-only (no IPv4 path at all)"
    else:
        classification = "ipv4-only or degraded"

    if classification == "dual-stack" and score == report.max_score:
        score = report.max_score - 1
        notes.append(
            "capped at 9/10: device works but has not adopted RFC 8925 "
            "(DHCPv4 option 108) — IPv4 is still natively configured"
        )
    return ScoreBreakdown(
        score=score,
        max_score=report.max_score,
        classified_as=classification,
        notes=notes,
    )


def _observed_v4(subtest: SubtestResult) -> Optional[IPv4Address]:
    """The client address the mirror observed, when it was IPv4.

    The mirror stamps ``x-client-address``; the report keeps the parsed
    observation in ``detail``-adjacent fields — we use the recorded
    used_address when it is v4, otherwise nothing (the server-side
    observation is injected by the experiment harness when NAT hides
    the client; see :mod:`repro.core.testbed`).
    """
    observed = getattr(subtest, "server_observed_address", None)
    if isinstance(observed, IPv4Address):
        return observed
    return None
