#!/usr/bin/env python3
"""The paper's closing argument, measured: "the October 2025 Windows 10
end-of-life deadline provides a rare opportunity to leverage the
Windows 11 refresh cycle as a catalyst for sunsetting IPv4."

Sweep a campus fleet through its refresh stages and watch IPv4 demand
collapse while the accurate IPv6-only share climbs.  Each distinct
device profile is measured once with a live client on the simulated
testbed, and every stage counts its devices by those outcomes, not by
interpolation.

Run:  python examples/fleet_refresh.py
"""

from repro.analysis.adoption import sweep_table, windows_refresh_mixes
from repro.analysis.fleet import run_fleet_adoption_sweep


def main() -> None:
    mixes = windows_refresh_mixes(fleet_size=23, stages=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    points = run_fleet_adoption_sweep(mixes)
    print(sweep_table(points))
    print()
    first, last = points[0], points[-1]
    print(f"IPv4 address demand: {first.ipv4_leases} -> {last.ipv4_leases} leases "
          f"({1 - last.ipv4_leases / first.ipv4_leases:.0%} reduction)")
    print(f"Accurate IPv6-only share: {first.v6only_share:.0%} -> {last.v6only_share:.0%}")
    print(f"Intervention exposure stays constant at {last.intervened} device(s) — "
          f"the IPv4-only stragglers the helpdesk page exists for.")


if __name__ == "__main__":
    main()
