"""The fleet *population* sweep: columns shipped home pickled.

:func:`run_fleet_population_stats` is the path where the parent ends up
holding every stage's evaluated columns.  These tests pin its contract:
the points equal the closed form's, the reconstructed per-stage columns
are byte-identical at any jobs count and chunk geometry, and the IPC
bill counts every column byte once.
"""

import pytest

from repro.analysis.adoption import sweep_table, windows_refresh_mixes
from repro.analysis.fleet import (
    run_fleet_adoption_sweep_stats,
    run_fleet_population_stats,
)
from repro.parallel import fork_available, SweepExecutor
from repro.sim.fleet import ALL_COLUMNS

FLEET = 2_000
MIN_SHARD = 128


def _run(jobs=2, keep_states=True, min_shard=MIN_SHARD):
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    return run_fleet_population_stats(
        mixes,
        jobs=jobs,
        min_shard=min_shard,
        keep_states=keep_states,
    )


def _closed_form_table():
    points, _info = run_fleet_adoption_sweep_stats(windows_refresh_mixes(fleet_size=FLEET))
    return sweep_table(points)


def _state_bytes(state):
    return {name: bytes(state.column(name)) for name in ALL_COLUMNS}


def test_population_matches_fold_only_sweep():
    points, _stats, info, states = _run()
    assert sweep_table(points) == _closed_form_table()
    assert len(states) == 5
    assert all(s is not None and s.size == FLEET for s in states)
    # Every column byte of every stage crosses the pipe once.
    assert info.ipc_bytes == len(ALL_COLUMNS) * FLEET * len(states)


def test_population_independent_of_jobs_and_geometry():
    closed_form = _closed_form_table()
    baseline = [_state_bytes(s) for s in _run(jobs=1)[3]]
    for jobs, min_shard in ((2, 64), (3, 512), (4, 997)):
        points, _stats, _info, states = _run(jobs=jobs, min_shard=min_shard)
        assert sweep_table(points) == closed_form
        assert [_state_bytes(s) for s in states] == baseline


@pytest.mark.skipif(not fork_available(), reason="needs fork")
def test_borrowed_executor_reuses_pool_across_stages():
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    with SweepExecutor(jobs=2) as executor:
        first = run_fleet_population_stats(
            mixes, executor=executor, min_shard=MIN_SHARD
        )
        pool = executor._pool
        second = run_fleet_population_stats(
            mixes, executor=executor, min_shard=MIN_SHARD
        )
        assert executor._pool is pool  # warm pool survived both sweeps
    assert sweep_table(first[0]) == sweep_table(second[0])


def test_serial_population_needs_no_fork_or_shm():
    points, stats, info, states = _run(jobs=1)
    assert stats.backend == "serial"
    # The serial bill counts the bytes a pool would have shipped.
    assert info.ipc_bytes == len(ALL_COLUMNS) * FLEET * len(states)
    assert all(s is not None for s in states)


def test_states_dropped_by_default():
    _points, _stats, _info, states = _run(keep_states=False)
    assert states == [None] * 5
