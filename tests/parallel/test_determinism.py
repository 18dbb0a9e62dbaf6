"""Sharding must be invisible in the results.

The sweeps run their shards through :class:`repro.parallel.SweepExecutor`
with :func:`repro.parallel.derive_seed` seeds; each must reproduce the
plain loop it replaced, row for row.
"""

from repro.analysis.adoption import (
    run_adoption_sweep,
    run_adoption_sweep_stats,
    windows_refresh_mixes,
)
from repro.analysis.matrix import run_device_matrix
from repro.clients.profiles import ALL_PROFILES
from repro.core.testbed import Testbed, TestbedConfig
from repro.parallel import derive_seed
from repro.services.captive import connectivity_probe

MIXES = windows_refresh_mixes(fleet_size=6, stages=(0.0, 0.5, 1.0))


class TestSweepDeterminism:
    def test_jobs1_matches_pre_sharding_serial_loop(self):
        # The original run_adoption_sweep, inlined: one fresh testbed
        # per mix, same config for every stage.
        expected_rows = []
        for mix in MIXES:
            testbed = Testbed(TestbedConfig())
            intervened = 0
            index = 0
            for profile, count in mix.devices:
                for _ in range(count):
                    client = testbed.add_client(profile, f"dev-{index}")
                    index += 1
                    if client.fetch("sc24.supercomputing.org").landed_on == "ip6.me":
                        intervened += 1
            census = testbed.census()
            expected_rows.append(
                (
                    mix.label,
                    mix.total,
                    sum(1 for c in testbed.clients if c.host.ipv4_config is not None),
                    sum(1 for c in testbed.clients if c.host.v6only_wait is not None),
                    intervened,
                    census.accurate_ipv6_only_count(),
                )
            )
        points = run_adoption_sweep(MIXES)
        got_rows = [
            (p.label, p.total, p.ipv4_leases, p.rfc8925_grants, p.intervened, p.accurate_v6only)
            for p in points
        ]
        assert got_rows == expected_rows

    def test_shard_seeds_follow_derive_seed(self):
        base = TestbedConfig().seed
        _points, stats = run_adoption_sweep_stats(MIXES)
        assert [s.seed for s in stats.shards] == [derive_seed(base, i) for i in range(len(MIXES))]

    def test_stats_report_one_row_per_mix(self):
        _points, stats = run_adoption_sweep_stats(MIXES)
        assert [s.index for s in stats.shards] == list(range(len(MIXES)))

    def test_reversed_stages_give_the_forward_points_reversed(self):
        # The shards run in one order in one process, so a shard that
        # leaks module state into a later one gives the same bytes under
        # every hash seed, and `sanitize` cannot see it.  Reversing the
        # stages gives each shard other predecessors (and another derived
        # seed, which stage outcomes do not depend on).
        mixes = windows_refresh_mixes(fleet_size=7, stages=(0.0, 0.4, 0.8, 1.0))
        forward = run_adoption_sweep(mixes)
        assert forward != forward[::-1]
        assert run_adoption_sweep(mixes[::-1]) == forward[::-1]


class TestMatrixDeterminism:
    def test_jobs1_matches_pre_sharding_single_testbed(self):
        # The original run_device_matrix, inlined: one shared testbed,
        # one client per profile, sequential.
        testbed = Testbed(TestbedConfig())
        expected_rows = []
        for index, profile in enumerate(ALL_PROFILES):
            client = testbed.add_client(profile, f"dev-{index}-{profile.name}")
            probe = connectivity_probe(client)
            browse = client.fetch("sc24.supercomputing.org")
            expected_rows.append(
                (
                    profile.name,
                    client.host.ipv4_config is not None,
                    client.host.v6only_wait is not None,
                    bool(client.host.ipv6_global_addresses()),
                    probe.outcome,
                    browse.landed_on,
                    browse.family,
                )
            )
        outcomes = run_device_matrix()
        got_rows = [
            (
                o.profile,
                o.got_ipv4_lease,
                o.got_option_108,
                o.has_ipv6,
                o.probe,
                o.browse_landed_on,
                o.browse_family,
            )
            for o in outcomes
        ]
        assert got_rows == expected_rows
