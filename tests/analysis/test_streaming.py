"""Streaming-fold arithmetic: the accumulators behind the sweep and
census tables merge and bulk-add exactly like per-device folding.

The tables the folds produce are pinned byte for byte by
``tests/test_golden.py``.
"""

from repro.core.metrics import AdoptionFold, CensusFold, ClientCensus
from repro.net.addresses import MacAddress


def test_census_fold_merge_is_addition():
    a = CensusFold()
    b = CensusFold()
    a.observe_flags(True, False, True, True, True)  # dual-stack
    b.observe_flags(False, True, True, False, True)  # RFC 8925 v6-only
    b.observe_flags(True, False, False, True, False)  # ipv4-only
    merged = CensusFold()
    merged.merge(a)
    merged.merge(b)
    assert merged.total == 3
    assert merged.naive_v6only == 2
    assert merged.accurate_v6only == 1
    assert sum(merged.by_class.values()) == 3


def test_census_table_view_delegates_to_fold():
    census = ClientCensus()
    census.observe("a", MacAddress(0x020000000001), True, False, True, True, True)
    census.observe("b", MacAddress(0x020000000002), False, True, True, False, True)
    assert census.fold.total == 2
    assert census.naive_ipv6_only_count() == census.fold.naive_ipv6_only_count()
    assert census.accurate_ipv6_only_count() == 1
    assert sum(census.breakdown().values()) == 2
    assert len(census.rows) == 2  # the table view still keeps its rows


def test_adoption_fold_bulk_equals_per_device():
    per_device = AdoptionFold()
    for _ in range(7):
        per_device.add_device(True, False, intervened=True, counts_v6only=False)
    bulk = AdoptionFold()
    bulk.add_bulk(7, True, False, intervened=True, counts_v6only=False)
    assert (
        per_device.total,
        per_device.ipv4_leases,
        per_device.rfc8925_grants,
        per_device.intervened,
        per_device.accurate_v6only,
    ) == (bulk.total, bulk.ipv4_leases, bulk.rfc8925_grants, bulk.intervened, bulk.accurate_v6only)
