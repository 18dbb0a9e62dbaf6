"""Sanitizer worker: one deterministic dump of traces and tables.

Run as ``python -m repro.lint._probe [--quick]`` by the sanitizer
parent, once per ``PYTHONHASHSEED`` value.  Every byte written to
stdout is supposed to be a pure function of the simulation seed — the
parent diffs the dumps and any divergence is a determinism bug.

The dump covers the three artifact classes the reproduction's claims
rest on:

- the packet trace of a small mixed-device scenario (frame bytes *and*
  the decoded one-line summaries, so both the codec path and the
  event ordering are covered);
- the §VII adoption-sweep table (one live testbed per stage);
- the §V device-outcome matrix table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def deterministic_dump(quick: bool = False) -> str:
    from repro.analysis.adoption import (
        run_adoption_sweep,
        sweep_table,
        windows_refresh_mixes,
    )
    from repro.analysis.matrix import matrix_table, run_device_matrix
    from repro.clients.profiles import MACOS, NINTENDO_SWITCH, WINDOWS_10, WINDOWS_11
    from repro.core.testbed import TestbedConfig, build_testbed

    out: List[str] = []

    # -- scenario + packet trace -------------------------------------------
    testbed = build_testbed(TestbedConfig(capture_traffic=True))
    profiles = [NINTENDO_SWITCH, WINDOWS_10] if quick else [
        NINTENDO_SWITCH,
        WINDOWS_10,
        WINDOWS_11,
        MACOS,
    ]
    for index, profile in enumerate(profiles):
        client = testbed.add_client(profile, f"san-{index}")
        outcome = client.fetch("sc24.supercomputing.org")
        out.append(
            f"fetch {profile.name}: ok={outcome.ok} landed_on={outcome.landed_on}"
        )
    assert testbed.trace is not None
    out.append(f"trace entries: {len(testbed.trace)}")
    for entry in testbed.trace.entries:
        out.append(f"{entry} | {entry.frame.hex()}")

    # -- adoption sweep -----------------------------------------------------
    mixes = windows_refresh_mixes(fleet_size=4 if quick else 8)
    out.append(sweep_table(run_adoption_sweep(mixes)))

    # -- device matrix ------------------------------------------------------
    if not quick:
        out.append(matrix_table(run_device_matrix()))

    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.lint._probe")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout.write(deterministic_dump(quick=args.quick))
    return 0


if __name__ == "__main__":
    sys.exit(main())
