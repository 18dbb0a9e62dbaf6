"""The fleet *population* sweep: transport equivalence and hygiene.

:func:`run_fleet_population_stats` is the path where the shard
transport matters — the parent ends up holding every stage's evaluated
columns.  These tests pin the contract the transports share: points
and reconstructed states are byte-identical across fold-only, pickle
and shared-memory paths, at any jobs count, with only the IPC bill
differing.
"""

import pytest

from repro.analysis.adoption import sweep_table, windows_refresh_mixes
from repro.analysis.fleet import (
    run_fleet_adoption_sweep_stats,
    run_fleet_population_stats,
)
from repro.parallel import fork_available, SweepExecutor
from repro.parallel.shm import scan_segments, shm_available
from repro.sim.fleet import ALL_COLUMNS

needs_shm_fork = pytest.mark.skipif(
    not (shm_available() and fork_available()), reason="needs fork + POSIX shm"
)

FLEET = 2_000
MIN_SHARD = 128


def _run(transport, jobs=2, keep_states=True, min_shard=MIN_SHARD):
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    return run_fleet_population_stats(
        mixes,
        jobs=jobs,
        min_shard=min_shard,
        transport=transport,
        keep_states=keep_states,
    )


def _state_bytes(state):
    return {name: bytes(state.column(name)) for name in ALL_COLUMNS}


def test_population_matches_fold_only_sweep():
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    fold_points, _info = run_fleet_adoption_sweep_stats(mixes)
    points, _stats, _info, states = _run("pickle")
    assert sweep_table(points) == sweep_table(fold_points)
    assert len(states) == len(mixes)
    assert all(s is not None and s.size == FLEET for s in states)


@needs_shm_fork
def test_transports_byte_identical():
    """The tentpole contract: pickle and shm produce identical points
    *and* identical per-stage columns; only the IPC accounting differs."""
    p_points, p_stats, p_info, p_states = _run("pickle")
    s_points, s_stats, s_info, s_states = _run("shm")
    assert sweep_table(p_points) == sweep_table(s_points)
    for p_state, s_state in zip(p_states, s_states):
        assert _state_bytes(p_state) == _state_bytes(s_state)
    assert p_info.transport == "pickle" and s_info.transport == "shm"
    # Pickle ships every column byte through the pipe; shm ships none.
    assert p_info.ipc_bytes == len(ALL_COLUMNS) * FLEET * len(p_states)
    assert s_info.ipc_bytes == 0


@needs_shm_fork
def test_shm_independent_of_jobs_and_geometry():
    baseline = sweep_table(_run("pickle", jobs=1, keep_states=False)[0])
    for jobs, min_shard in ((2, 64), (3, 512), (4, 997)):
        points = _run("shm", jobs=jobs, keep_states=False, min_shard=min_shard)[0]
        assert sweep_table(points) == baseline


@needs_shm_fork
def test_no_segments_leak_across_sweeps():
    before = scan_segments()
    _run("shm", keep_states=False)
    assert scan_segments() == before


@needs_shm_fork
def test_borrowed_executor_reuses_pool_across_stages():
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    before = scan_segments()
    with SweepExecutor(jobs=2, transport="shm") as executor:
        first = run_fleet_population_stats(
            mixes, executor=executor, min_shard=MIN_SHARD
        )
        pool = executor._pool
        second = run_fleet_population_stats(
            mixes, executor=executor, min_shard=MIN_SHARD
        )
        assert executor._pool is pool  # warm pool survived both sweeps
    assert sweep_table(first[0]) == sweep_table(second[0])
    assert scan_segments() == before


def test_serial_population_needs_no_fork_or_shm():
    points, stats, info, states = _run("auto", jobs=1)
    assert stats.backend == "serial"
    assert info.transport == "pickle"
    assert all(s is not None for s in states)


def test_states_dropped_by_default():
    _points, _stats, _info, states = _run("pickle", keep_states=False)
    assert states == [None] * 5
