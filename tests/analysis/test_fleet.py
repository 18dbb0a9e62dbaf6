"""The closed-form fleet sweep: equivalence with the object path, and
the columnar state the population path still uses."""

import tracemalloc
from dataclasses import replace

import pytest

from repro.analysis.adoption import FleetMix, run_adoption_sweep, windows_refresh_mixes
from repro.analysis.fleet import (
    _slice_runs,
    FleetSweepInfo,
    run_fleet_adoption_sweep,
    run_fleet_adoption_sweep_stats,
    run_fleet_population_stats,
)
from repro.clients.fleet import calibrate_profiles, outcome_tables
from repro.clients.profiles import (
    ALL_PROFILES,
    LEGACY_IOT,
    MACOS,
    WINDOWS_10,
    WINDOWS_11_RFC8925,
)
from repro.core.testbed import PI_POOL_SIZE, Testbed, TestbedConfig
from repro.sim.fleet import FleetState, OUTCOME_COLUMNS


def as_tuples(points):
    return [
        (p.label, p.total, p.ipv4_leases, p.rfc8925_grants, p.intervened, p.accurate_v6only)
        for p in points
    ]


def test_fleet_sweep_matches_object_path():
    """The tentpole equivalence: per-profile calibration folded as
    count × outcome must reproduce the live-client sweep's counts exactly."""
    mixes = windows_refresh_mixes(fleet_size=12)
    assert as_tuples(run_fleet_adoption_sweep(mixes)) == as_tuples(run_adoption_sweep(mixes))


def test_fleet_sweep_equivalence_with_intervention_off():
    config = TestbedConfig(poisoned_dns=False)
    mixes = windows_refresh_mixes(fleet_size=10)
    assert as_tuples(run_fleet_adoption_sweep(mixes, config)) == as_tuples(
        run_adoption_sweep(mixes, config)
    )


CONFIGS = pytest.mark.parametrize(
    "config",
    [TestbedConfig(), TestbedConfig(poisoned_dns=False), TestbedConfig(use_rpz=True)],
    ids=["poisoner", "no-intervention", "rpz"],
)


@CONFIGS
def test_closed_form_matches_object_path_for_every_profile(config):
    """Every profile, with counts of 1 and 2 in both orders: at most 17
    live clients per stage testbed, inside its 50-address IPv4 pool."""
    mixes = [
        FleetMix(tuple((p, 1 + i % 2) for i, p in enumerate(ALL_PROFILES)), label="odd"),
        FleetMix(tuple((p, 2 - i % 2) for i, p in enumerate(ALL_PROFILES)), label="even"),
    ]
    assert as_tuples(run_fleet_adoption_sweep(mixes, config)) == as_tuples(
        run_adoption_sweep(mixes, config)
    )


@CONFIGS
def test_closed_form_matches_object_path_up_to_the_pool(config):
    """52 devices fill the Pi pool at 0% refreshed (49 Windows 10 boxes
    and the IoT box; the Macs take option 108) and the live oracle
    still equals the fold.  One more Windows 10 box and the live
    testbed runs dry: it counts a full pool where demand is one more."""
    mixes = windows_refresh_mixes(fleet_size=52, stages=(0.0, 1.0))
    assert as_tuples(run_fleet_adoption_sweep(mixes, config)) == as_tuples(
        run_adoption_sweep(mixes, config)
    )
    mixes = windows_refresh_mixes(fleet_size=53, stages=(0.0,))
    [live] = run_adoption_sweep(mixes, config)
    [closed] = run_fleet_adoption_sweep(mixes, config)
    assert (live.ipv4_leases, closed.ipv4_leases) == (PI_POOL_SIZE, PI_POOL_SIZE + 1)


@pytest.mark.parametrize(
    "twin",
    [
        replace(WINDOWS_10, ipv6_enabled=False),
        replace(WINDOWS_11_RFC8925, supports_option_108=False),
    ],
    ids=["v6-disabled", "no-option-108"],
)
def test_profiles_sharing_a_name_calibrate_separately(twin):
    """A profile is its value, not its name: a same-named twin with one
    field changed gets its own calibrated outcome on both fleet paths."""
    original = next(p for p in ALL_PROFILES if p.name == twin.name)
    mixes = [FleetMix(((original, 2), (twin, 2)))]
    expected = as_tuples(run_adoption_sweep(mixes))
    assert as_tuples(run_fleet_adoption_sweep(mixes)) == expected
    assert as_tuples(run_fleet_population_stats(mixes)[0]) == expected


def test_fleet_sweep_scales_without_v4_pool_exhaustion():
    """The object path is capped by the DHCP pool; the columnar path
    reports lease *demand* per profile and never exhausts anything."""
    mixes = windows_refresh_mixes(fleet_size=50_000)
    points = run_fleet_adoption_sweep(mixes)
    assert points[0].total == 50_000
    # Stage 0: every Windows 10 box plus the Macs want IPv4.
    assert points[0].ipv4_leases > 49_000
    # Final stage: only the legacy IoT box still leases plain IPv4.
    assert points[-1].rfc8925_grants > 49_000


def test_fleet_info_accounting():
    mixes = windows_refresh_mixes(fleet_size=100)
    points, info = run_fleet_adoption_sweep_stats(mixes)
    assert info == FleetSweepInfo(devices=5 * 100, stages=5, distinct_profiles=4)
    assert [p.total for p in points] == [100] * 5


def test_calibration_reuse_and_mismatch():
    mixes = windows_refresh_mixes(fleet_size=8)
    config = TestbedConfig()
    profiles = [WINDOWS_10, WINDOWS_11_RFC8925, MACOS]
    calibration = calibrate_profiles(profiles, config)
    with pytest.raises(ValueError, match="calibration covers 3"):
        run_fleet_adoption_sweep_stats(mixes, config, calibration=calibration)


def test_calibration_outcomes_cover_observables():
    config = TestbedConfig()
    outcomes = calibrate_profiles(
        [WINDOWS_10, WINDOWS_11_RFC8925, MACOS, LEGACY_IOT], config
    )
    w10, w11, mac, iot = outcomes
    assert w10.has_v4_lease and not w10.granted_v6only
    assert w11.granted_v6only and not w11.has_v4_lease
    assert mac.granted_v6only
    # Only the IPv4-only device hits the paper's intervention; the
    # dual-stack Windows 10 box browses over v6 and is left alone.
    assert iot.intervened and not w10.intervened and not w11.intervened
    tables = outcome_tables(outcomes)
    assert set(tables) == set(OUTCOME_COLUMNS)
    assert all(len(t) == 256 for t in tables.values())


def test_outcome_tables_reject_oversized_fleets():
    config = TestbedConfig()
    outcome = calibrate_profiles([WINDOWS_10], config)[0]
    with pytest.raises(ValueError, match="256"):
        outcome_tables([outcome] * 257)


def test_slice_runs_covers_ranges():
    runs = [(1, 5), (2, 3), (3, 4)]
    assert _slice_runs(runs, 0, 12) == runs
    assert _slice_runs(runs, 0, 5) == [(1, 5)]
    assert _slice_runs(runs, 4, 9) == [(1, 1), (2, 3), (3, 1)]
    assert _slice_runs(runs, 8, 12) == [(3, 4)]
    assert _slice_runs(runs, 6, 7) == [(2, 1)]


def test_fleet_memory_at_least_5x_smaller_per_device():
    """The acceptance floor: the columnar path must allocate at least 5x
    less memory per device than the object path (it is ~1000x in
    practice).  tracemalloc gives a deterministic per-path allocation
    measure, immune to allocator/RSS noise."""
    config = TestbedConfig()
    object_devices = 20

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    testbed = Testbed(config)
    for index, profile in enumerate(
        [ALL_PROFILES[i % len(ALL_PROFILES)] for i in range(object_devices)]
    ):
        testbed.add_client(profile, f"dev-{index}")
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    object_per_device = (after - before) / object_devices

    fleet_devices = 100_000
    calibration = calibrate_profiles(list(ALL_PROFILES), config)
    tables = outcome_tables(calibration)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    state = FleetState(fleet_devices)
    state.fill_runs([(i % len(ALL_PROFILES), 1) for i in range(fleet_devices)])
    state.apply_outcomes(tables)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    fleet_per_device = (after - before) / fleet_devices

    assert fleet_per_device < 64  # a handful of column bytes, not objects
    assert object_per_device >= 5 * fleet_per_device, (
        f"object path {object_per_device:.0f} B/device is not ≥5x the "
        f"columnar {fleet_per_device:.1f} B/device"
    )
