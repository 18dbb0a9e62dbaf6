"""Client census: the accurate IPv6-only client counting SC24 wants.

Paper §III.A: a dual-stack laptop running an IPv4-literal application
"was actively being counted towards the SC23v6 usage statistics, despite
solely connecting into that SSID for an IPv4-only service.  For SC24,
SCinet's IPv6 operational subject matter experts would like to have an
accurate IPv6-only client count."

:class:`ClientCensus` classifies each client from *observable* network
state — DHCP leases (v6-only grants vs plain IPv4 leases), NAT44 vs
NAT64 session tables, and native v6 flows — the same evidence a real
operator has.
"""

from __future__ import annotations

import enum
from dataclasses import field
from typing import Dict, List

from repro._compat import slotted_dataclass
from repro.net.addresses import MacAddress

__all__ = [
    "ClientClass",
    "classify_client",
    "CensusRow",
    "CensusFold",
    "ClientCensus",
    "AdoptionFold",
    "ShardStats",
    "SweepStats",
]


class ClientClass(enum.Enum):
    """Operator-visible classification of one client device."""

    IPV6_ONLY_RFC8925 = "ipv6-only (RFC 8925 grant)"
    IPV6_ONLY_NATIVE = "ipv6-only (no IPv4 at all)"
    DUAL_STACK = "dual-stack"
    IPV4_ONLY = "ipv4-only"
    UNKNOWN = "unknown"

    @property
    def counts_as_ipv6_only(self) -> bool:
        return self in (ClientClass.IPV6_ONLY_RFC8925, ClientClass.IPV6_ONLY_NATIVE)


def classify_client(
    has_v4_lease: bool,
    granted_v6only: bool,
    has_v6_address: bool,
    sent_v4_flows: bool,
    sent_v6_flows: bool,
) -> ClientClass:
    """Classify one client from operator-visible evidence.

    The SC23 failure mode is preserved deliberately in the *naive*
    counting (see :meth:`CensusFold.naive_ipv6_only_count`): a client
    associated to the v6 SSID counts regardless of what it actually
    sent.  The accurate count demands v6 flows and no native v4.
    """
    if granted_v6only and has_v6_address:
        return ClientClass.IPV6_ONLY_RFC8925
    if not has_v4_lease and has_v6_address and not sent_v4_flows:
        return ClientClass.IPV6_ONLY_NATIVE
    if has_v4_lease and has_v6_address and sent_v6_flows:
        return ClientClass.DUAL_STACK
    if has_v4_lease and not has_v6_address:
        return ClientClass.IPV4_ONLY
    if has_v4_lease and has_v6_address and not sent_v6_flows:
        # Associated to the v6 network, used only IPv4 — the Echolink
        # laptop of figure 2.
        return ClientClass.DUAL_STACK
    return ClientClass.UNKNOWN


@slotted_dataclass()
class CensusRow:
    name: str
    mac: MacAddress
    classification: ClientClass
    has_v4_lease: bool
    has_v6_address: bool
    sent_v4_flows: bool
    sent_v6_flows: bool


@slotted_dataclass()
class CensusFold:
    """Streaming census counters: constant memory, no per-client rows.

    The fold is the million-host path — observations update counters
    and are forgotten, and disjoint folds (one per fleet shard) merge
    by plain addition, so the counts are independent of how a sweep was
    sharded.  :class:`ClientCensus` layers the row-keeping table view
    on top of this same fold, which is how the two stay byte-identical.
    """

    total: int = 0
    naive_v6only: int = 0
    accurate_v6only: int = 0
    by_class: Dict[ClientClass, int] = field(default_factory=dict)

    def observe_flags(
        self,
        has_v4_lease: bool,
        granted_v6only: bool,
        has_v6_address: bool,
        sent_v4_flows: bool,
        sent_v6_flows: bool,
    ) -> ClientClass:
        """Classify one client and fold it into the counters."""
        cls = classify_client(
            has_v4_lease, granted_v6only, has_v6_address, sent_v4_flows, sent_v6_flows
        )
        self.add_class(cls, has_v6_address=has_v6_address)
        return cls

    def add_class(self, cls: ClientClass, has_v6_address: bool, count: int = 1) -> None:
        """Fold ``count`` clients of one pre-computed class (bulk path)."""
        self.total += count
        if has_v6_address:
            self.naive_v6only += count
        if cls.counts_as_ipv6_only:
            self.accurate_v6only += count
        self.by_class[cls] = self.by_class.get(cls, 0) + count

    def merge(self, other: "CensusFold") -> None:
        """Fold another shard's counters into this one (order-free)."""
        self.total += other.total
        self.naive_v6only += other.naive_v6only
        self.accurate_v6only += other.accurate_v6only
        for cls, count in other.by_class.items():
            self.by_class[cls] = self.by_class.get(cls, 0) + count

    # -- the two counting methods the paper contrasts ------------------------

    def naive_ipv6_only_count(self) -> int:
        """SC23-style: every associated client with a v6 address counts."""
        return self.naive_v6only

    def accurate_ipv6_only_count(self) -> int:
        """SC24 goal: only clients genuinely operating IPv6-only."""
        return self.accurate_v6only


@slotted_dataclass()
class ClientCensus:
    """Aggregates classification over a set of observed clients.

    Counting is delegated to an internal :class:`CensusFold`, so the
    numbers this table view reports are definitionally identical to
    what the row-free streaming path produces.
    """

    rows: List[CensusRow] = field(default_factory=list)
    fold: CensusFold = field(default_factory=CensusFold)

    def observe(
        self,
        name: str,
        mac: MacAddress,
        has_v4_lease: bool,
        granted_v6only: bool,
        has_v6_address: bool,
        sent_v4_flows: bool,
        sent_v6_flows: bool,
    ) -> CensusRow:
        """Classify one client from operator-visible evidence (see
        :func:`classify_client`) and keep its full row for the table."""
        cls = self.fold.observe_flags(
            has_v4_lease, granted_v6only, has_v6_address, sent_v4_flows, sent_v6_flows
        )
        row = CensusRow(
            name,
            mac,
            cls,
            has_v4_lease,
            has_v6_address,
            sent_v4_flows,
            sent_v6_flows,
        )
        self.rows.append(row)
        return row

    # -- the two counting methods the paper contrasts ------------------------

    def naive_ipv6_only_count(self) -> int:
        """SC23-style: every associated client with a v6 address counts."""
        return self.fold.naive_ipv6_only_count()

    def accurate_ipv6_only_count(self) -> int:
        """SC24 goal: only clients genuinely operating IPv6-only."""
        return self.fold.accurate_ipv6_only_count()

    def breakdown(self) -> Dict[ClientClass, int]:
        return dict(self.fold.by_class)

    def table(self) -> str:
        lines = [f"{'client':20s} {'class':34s} v4lease v6addr v4flows v6flows"]
        for r in self.rows:
            lines.append(
                f"{r.name:20s} {r.classification.value:34s} "
                f"{str(r.has_v4_lease):7s} {str(r.has_v6_address):6s} "
                f"{str(r.sent_v4_flows):7s} {str(r.sent_v6_flows):7s}"
            )
        lines.append(
            f"naive v6-only count: {self.naive_ipv6_only_count()}   "
            f"accurate v6-only count: {self.accurate_ipv6_only_count()}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# adoption fold (the §VII trajectory's streaming accumulator)
# ---------------------------------------------------------------------------


@slotted_dataclass()
class AdoptionFold:
    """Incremental accumulator for one adoption-sweep stage.

    Replaces the three full passes over a retained client list with one
    constant-memory fold: each device contributes its flags once (via
    :meth:`add_device`), or a whole block of identically-behaving
    devices contributes at once (via :meth:`add_bulk`, the closed-form
    fleet sweep).  Disjoint folds merge by addition, so a stage split
    into shards produces exactly the unsplit counts.
    """

    total: int = 0
    ipv4_leases: int = 0
    rfc8925_grants: int = 0
    intervened: int = 0
    accurate_v6only: int = 0

    def add_device(
        self,
        has_v4_lease: bool,
        granted_v6only: bool,
        intervened: bool,
        counts_v6only: bool,
    ) -> None:
        """Fold one live client's observed outcome."""
        self.total += 1
        if has_v4_lease:
            self.ipv4_leases += 1
        if granted_v6only:
            self.rfc8925_grants += 1
        if intervened:
            self.intervened += 1
        if counts_v6only:
            self.accurate_v6only += 1

    def add_bulk(
        self,
        count: int,
        has_v4_lease: bool,
        granted_v6only: bool,
        intervened: bool,
        counts_v6only: bool,
    ) -> None:
        """Fold ``count`` devices sharing one calibrated outcome.

        The flags are the ones :meth:`add_device` takes for one live
        client, so folding a profile's calibrated outcome with its
        device count equals folding that many clients one by one
        (:func:`repro.analysis.fleet.run_fleet_adoption_sweep_stats`).
        """
        self.total += count
        if has_v4_lease:
            self.ipv4_leases += count
        if granted_v6only:
            self.rfc8925_grants += count
        if intervened:
            self.intervened += count
        if counts_v6only:
            self.accurate_v6only += count

    def merge(self, other: "AdoptionFold") -> None:
        """Fold another shard's partial counts into this one."""
        self.total += other.total
        self.ipv4_leases += other.ipv4_leases
        self.rfc8925_grants += other.rfc8925_grants
        self.intervened += other.intervened
        self.accurate_v6only += other.accurate_v6only


# ---------------------------------------------------------------------------
# sweep execution statistics (repro.parallel folds its per-shard rows here)
# ---------------------------------------------------------------------------


@slotted_dataclass()
class ShardStats:
    """Per-shard statistics from one sweep run.

    ``ipc_bytes`` counts the bulk payload bytes the shard's worker
    reported in its :class:`repro.parallel.ShardPayload`.
    """

    index: int
    seed: int
    ipc_bytes: int = 0


@slotted_dataclass()
class SweepStats:
    """Merged statistics for one sweep: one row per shard."""

    shards: List[ShardStats] = field(default_factory=list)

    @property
    def total_ipc_bytes(self) -> int:
        """Bulk payload bytes the sweep's workers reported."""
        return sum(s.ipc_bytes for s in self.shards)
