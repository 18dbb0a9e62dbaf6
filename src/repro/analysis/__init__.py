"""Experiment analysis: the device-outcome matrix and the fleet-refresh
adoption sweeps."""

from repro.analysis.adoption import (
    AdoptionPoint,
    FleetMix,
    run_adoption_sweep,
    sweep_table,
    windows_refresh_mixes,
)
from repro.analysis.fleet import (
    FleetSweepInfo,
    run_fleet_adoption_sweep,
    run_fleet_adoption_sweep_stats,
)
from repro.analysis.matrix import DeviceOutcome, matrix_table, run_device_matrix

__all__ = [
    "DeviceOutcome",
    "run_device_matrix",
    "matrix_table",
    "AdoptionPoint",
    "FleetMix",
    "run_adoption_sweep",
    "sweep_table",
    "windows_refresh_mixes",
    "FleetSweepInfo",
    "run_fleet_adoption_sweep",
    "run_fleet_adoption_sweep_stats",
]
