"""Million-device adoption sweeps in closed form.

The object path (:func:`repro.analysis.adoption.run_adoption_sweep`)
simulates every device as a live packet-level client.  It is the
oracle for this module while each stage's IPv4 demand fits the Pi DHCP
pool (:data:`repro.core.testbed.PI_POOL_SIZE`); past it the devices
that join last get no lease.  The simulation is not needed per device:
every device of one OS profile on one testbed configuration has the
identical observable outcome (:mod:`repro.clients.fleet`), so a
stage's :class:`AdoptionPoint` is the sum over distinct profiles of
``count × outcome``:

1. **calibrate once** — each *distinct* OS profile in the sweep is
   measured with one live client on a real testbed
   (:func:`repro.clients.fleet.calibrate_profiles`);
2. **fold in closed form** — each stage's ``(profile, count)`` pairs
   fold into an :class:`~repro.core.metrics.AdoptionFold` through
   :meth:`~repro.core.metrics.AdoptionFold.add_bulk`, with the same
   flags the object path folds for one live client.

That is O(stages × profiles) integer arithmetic, exact IPv4 demand at
any device count (no pool runs dry): no shards and no per-device
state.  Both ``sweep`` and ``fleet`` print it.

:func:`run_fleet_population_stats` is the older columnar path, kept
until the benchmark's tracer stops naming it: shard workers evaluate
per-device columns (:class:`repro.sim.fleet.FleetState`, ≈7 B/device)
and export them as bytes, which the caller rebuilds into each stage.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.analysis.adoption import AdoptionPoint, FleetMix
from repro.clients.fleet import (
    calibrate_profiles,
    CLASS_FOR_CODE,
    outcome_tables,
    ProfileOutcome,
)
from repro.clients.profiles import OsProfile
from repro.core.metrics import AdoptionFold, CensusFold, SweepStats
from repro.core.testbed import TestbedConfig
from repro.parallel import chunk_ranges, make_shards, ShardPayload, ShardSpec, SweepExecutor
from repro.sim import fleet as fl

__all__ = [
    "FleetPopulationInfo",
    "FleetSweepInfo",
    "distinct_profiles",
    "run_fleet_adoption_sweep",
    "run_fleet_adoption_sweep_stats",
    "run_fleet_population_stats",
]

#: Devices below which a stage is not worth cutting into further shards;
#: columnar work is so cheap that tiny shards are pure per-shard overhead.
DEFAULT_MIN_SHARD = 65_536


@slotted_dataclass()
class FleetSweepInfo:
    """What one closed-form fleet sweep covered: the devices folded
    over all stages, the stages, and the distinct profiles calibrated."""

    devices: int
    stages: int
    distinct_profiles: int


@slotted_dataclass()
class FleetPopulationInfo(FleetSweepInfo):
    """Execution accounting for one population sweep.

    ``ipc_bytes`` bills the sweep's bulk data: ~``bytes_per_device``
    bytes per device, exported as column bytes.
    """

    shard_count: int
    bytes_per_device: float
    ipc_bytes: int = 0


def distinct_profiles(mixes: Sequence[FleetMix]) -> List[OsProfile]:
    """Distinct profiles in first-appearance order across all stages.

    Profiles are told apart by value, not by name: two profiles that
    share a name but differ in a field behave differently, so each is
    calibrated on its own.
    """
    return list(dict.fromkeys(profile for mix in mixes for profile, _count in mix.devices))


def _runs_for_mix(mix: FleetMix, profile_index: Dict[OsProfile, int]) -> List[Tuple[int, int]]:
    """``(profile_code, count)`` runs in the mix's declared device order."""
    return [(profile_index[profile], count) for profile, count in mix.devices]


def _slice_runs(
    runs: Sequence[Tuple[int, int]], start: int, stop: int
) -> List[Tuple[int, int]]:
    """The sub-runs covering device positions ``[start, stop)``."""
    out: List[Tuple[int, int]] = []
    offset = 0
    for code, count in runs:
        lo = max(start, offset)
        hi = min(stop, offset + count)
        if hi > lo:
            out.append((code, hi - lo))
        offset += count
        if offset >= stop:
            break
    return out


def _fold_state(state: fl.FleetState) -> AdoptionFold:
    """Fold one shard worker's columnar range into its additive counts;
    the IPv6-only count folds from the census column's classes."""
    census = CensusFold()
    for code, count in state.code_counts("census").items():
        census.add_class(CLASS_FOR_CODE[code], has_v6_address=False, count=count)
    return AdoptionFold(
        total=state.size,
        ipv4_leases=state.count("dhcp4", fl.DHCP4_LEASED),
        rfc8925_grants=state.count("dhcp4", fl.DHCP4_V6ONLY_GRANT),
        intervened=state.count("dns", fl.DNS_POISON_REDIRECT),
        accurate_v6only=census.accurate_v6only,
    )


def _build_range_state(
    runs: Sequence[Tuple[int, int]],
    start: int,
    stop: int,
    tables: Dict[str, bytes],
) -> fl.FleetState:
    """Materialize + evaluate one contiguous device range columnar-ly."""
    state = fl.FleetState(stop - start)
    state.fill_runs(_slice_runs(runs, start, stop))
    state.apply_outcomes(tables)
    return state


def _export_fleet_range(spec: ShardSpec) -> ShardPayload:
    """Worker for the population path: evaluate a range, export columns.

    The payload carries everything the worker needs — the range's
    profile runs and the pre-built translate tables — so it touches no
    testbed, no engine and no RNG.  The shard's ``ipc_bytes`` bills the
    exported columns, ~7 B/device.
    """
    mix_index, start, stop, runs, tables = spec.payload
    state = _build_range_state(runs, start, stop, tables)
    fold = _fold_state(state)
    columns = state.export_columns()
    ipc = sum(len(data) for data in columns.values())
    return ShardPayload((mix_index, fold, columns), ipc_bytes=ipc)


def run_fleet_adoption_sweep_stats(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
    target_site: str = "sc24.supercomputing.org",
    calibration: Optional[Tuple[ProfileOutcome, ...]] = None,
) -> Tuple[List[AdoptionPoint], FleetSweepInfo]:
    """The closed-form adoption sweep: calibrate once, fold each stage.

    Produces one :class:`AdoptionPoint` per mix, in mix order.  Each
    point's ``ipv4_leases`` counts demand, so the points equal the
    object path's while demand fits the Pi DHCP pool.  ``calibration``
    lets a caller reuse a previously-measured profile table (one outcome
    per :func:`distinct_profiles` entry, in that order) across repeated
    sweeps of the same config instead of paying the calibration testbed
    again.
    """
    config = config or TestbedConfig()
    profiles = distinct_profiles(mixes)
    outcomes = _calibrate(profiles, config, target_site, calibration)
    # The flags _measure_mix folds for one live client, per profile.
    flags = {
        profile: (
            outcome.has_v4_lease,
            outcome.granted_v6only,
            outcome.intervened,
            outcome.census_class.counts_as_ipv6_only,
        )
        for profile, outcome in zip(profiles, outcomes)
    }

    folds = []
    for mix in mixes:
        fold = AdoptionFold()
        for profile, count in mix.devices:
            fold.add_bulk(count, *flags[profile])
        folds.append(fold)

    info = FleetSweepInfo(
        devices=sum(fold.total for fold in folds),
        stages=len(mixes),
        distinct_profiles=len(profiles),
    )
    return _points_from_folds(mixes, folds), info


def _calibrate(
    profiles: Sequence[OsProfile],
    config: TestbedConfig,
    target_site: str,
    calibration: Optional[Tuple[ProfileOutcome, ...]],
) -> Tuple[ProfileOutcome, ...]:
    """Measure a calibration, or validate a reused one, for ``profiles``."""
    if calibration is None:
        return calibrate_profiles(list(profiles), config, target_site=target_site)
    if len(calibration) != len(profiles):
        raise ValueError(
            f"calibration covers {len(calibration)} profiles, sweep needs {len(profiles)}"
        )
    return calibration


def _points_from_folds(
    mixes: Sequence[FleetMix], folds: Sequence[AdoptionFold]
) -> List[AdoptionPoint]:
    return [
        AdoptionPoint(
            label=mix.label,
            total=fold.total,
            ipv4_leases=fold.ipv4_leases,
            rfc8925_grants=fold.rfc8925_grants,
            intervened=fold.intervened,
            accurate_v6only=fold.accurate_v6only,
        )
        for mix, fold in zip(mixes, folds)
    ]


def run_fleet_population_stats(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
    min_shard: int = DEFAULT_MIN_SHARD,
    target_site: str = "sc24.supercomputing.org",
    calibration: Optional[Tuple[ProfileOutcome, ...]] = None,
    keep_states: bool = False,
) -> Tuple[List[AdoptionPoint], SweepStats, FleetPopulationInfo, List[Optional[fl.FleetState]]]:
    """The population sweep: like the adoption sweep, but the caller ends
    up holding every stage's evaluated *columns*, not just the counts.

    Workers evaluate their range and hand the columns back as bytes
    (~7 B/device, billed as ``ipc_bytes``).  The caller reconstructs
    each stage's merged :class:`~repro.sim.fleet.FleetState` — a sanity
    cross-check against the workers' additive folds runs on every
    stage — and the points it returns are byte-identical to
    :func:`run_fleet_adoption_sweep_stats` at any chunk geometry.

    ``keep_states=True`` returns the per-stage states (tests byte-diff
    them across geometries); the default drops each stage's state after
    its cross-check so peak RSS stays bounded by one stage's columns on
    top of the exported bytes.
    """
    config = config or TestbedConfig()
    profiles = distinct_profiles(mixes)
    index_of = {profile: i for i, profile in enumerate(profiles)}
    tables = outcome_tables(_calibrate(profiles, config, target_site, calibration))

    payloads = []
    stage_slots: List[List[int]] = []  # payload indices per stage, range order
    for mix_index, mix in enumerate(mixes):
        runs = _runs_for_mix(mix, index_of)
        slots: List[int] = []
        for start, stop in chunk_ranges(mix.total, min_shard):
            slots.append(len(payloads))
            payloads.append((mix_index, start, stop, runs, tables))
        stage_slots.append(slots)
    specs = make_shards(payloads, base_seed=config.seed)

    executor = SweepExecutor()
    values = executor.map(_export_fleet_range, specs)
    stats = executor.last_stats

    folds = [AdoptionFold() for _ in mixes]
    for mix_i, fold, _columns in values:
        folds[mix_i].merge(fold)

    # Rebuild stage by stage from the exported column bytes and
    # cross-check each against the folds.
    states: List[Optional[fl.FleetState]] = []
    for mix_index, mix in enumerate(mixes):
        state = fl.FleetState(mix.total)
        for payload_index in stage_slots[mix_index]:
            _mix, start, stop, _runs, _tables = payloads[payload_index]
            state.import_range(start, stop, values[payload_index][2])
        _check_stage(state, folds[mix_index], mix.label)
        states.append(state if keep_states else None)

    points = _points_from_folds(mixes, folds)
    info = FleetPopulationInfo(
        devices=sum(mix.total for mix in mixes),
        stages=len(mixes),
        distinct_profiles=len(profiles),
        shard_count=len(specs),
        bytes_per_device=float(len(fl.ALL_COLUMNS)),
        ipc_bytes=stats.total_ipc_bytes,
    )
    return points, stats, info, states


def _check_stage(state: fl.FleetState, fold: AdoptionFold, label: str) -> None:
    """Cross-check the reconstructed columns against the workers' folds.

    Two C-speed column counts per stage — cheap at any scale, and they
    would catch a range imported at the wrong offset or a column lost
    between export and import.
    """
    leases = state.count("dhcp4", fl.DHCP4_LEASED)
    grants = state.count("dhcp4", fl.DHCP4_V6ONLY_GRANT)
    if state.size != fold.total or leases != fold.ipv4_leases or grants != fold.rfc8925_grants:
        raise RuntimeError(
            f"fleet stage {label!r}: reconstructed columns disagree with worker "
            f"folds (size {state.size}/{fold.total}, leases {leases}/"
            f"{fold.ipv4_leases}, grants {grants}/{fold.rfc8925_grants}) — "
            "columns corrupted on export"
        )


def run_fleet_adoption_sweep(
    mixes: Sequence[FleetMix],
    config: Optional[TestbedConfig] = None,
) -> List[AdoptionPoint]:
    """Fleet-scale adoption trajectory, in closed form."""
    points, _info = run_fleet_adoption_sweep_stats(mixes, config)
    return points
