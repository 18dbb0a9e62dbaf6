"""The fleet *population* sweep: every stage's columns, exported by range.

:func:`run_fleet_population_stats` is the path where the caller ends up
holding every stage's evaluated columns.  These tests pin its contract:
the points equal the closed form's, the reconstructed per-stage columns
are byte-identical at any chunk geometry, and the IPC bill counts every
column byte once.
"""

from repro.analysis.adoption import sweep_table, windows_refresh_mixes
from repro.analysis.fleet import (
    run_fleet_adoption_sweep_stats,
    run_fleet_population_stats,
)
from repro.sim.fleet import ALL_COLUMNS

FLEET = 2_000
MIN_SHARD = 128


def _run(keep_states=True, min_shard=MIN_SHARD):
    mixes = windows_refresh_mixes(fleet_size=FLEET)
    return run_fleet_population_stats(mixes, min_shard=min_shard, keep_states=keep_states)


def _closed_form_table():
    points, _info = run_fleet_adoption_sweep_stats(windows_refresh_mixes(fleet_size=FLEET))
    return sweep_table(points)


def _state_bytes(state):
    return {name: bytes(state.column(name)) for name in ALL_COLUMNS}


def test_population_matches_fold_only_sweep():
    points, stats, info, states = _run()
    assert sweep_table(points) == _closed_form_table()
    assert len(states) == 5
    assert all(s is not None and s.size == FLEET for s in states)
    # Every column byte of every stage is billed once.
    assert info.ipc_bytes == len(ALL_COLUMNS) * FLEET * len(states)
    assert len(stats.shards) == info.shard_count == 5 * (FLEET // MIN_SHARD)


def test_population_independent_of_geometry():
    closed_form = _closed_form_table()
    baseline = [_state_bytes(s) for s in _run(min_shard=FLEET)[3]]
    for min_shard in (64, 512, 997):
        points, _stats, _info, states = _run(min_shard=min_shard)
        assert sweep_table(points) == closed_form
        assert [_state_bytes(s) for s in states] == baseline


def test_states_dropped_by_default():
    _points, _stats, _info, states = _run(keep_states=False)
    assert states == [None] * 5
