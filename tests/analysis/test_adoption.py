"""The Windows-refresh adoption sweep (paper §VII conclusion)."""

import pytest

from repro.analysis.adoption import (
    FIXED_DEVICES,
    FleetMix,
    run_adoption_sweep,
    sweep_table,
    windows_refresh_mixes,
)
from repro.clients.profiles import NINTENDO_SWITCH, WINDOWS_10, WINDOWS_11_RFC8925


@pytest.fixture(scope="module")
def sweep():
    return run_adoption_sweep(windows_refresh_mixes(fleet_size=12))


class TestAdoptionSweep:
    def test_v6only_share_monotonically_rises(self, sweep):
        shares = [p.v6only_share for p in sweep]
        assert shares == sorted(shares)
        assert shares[-1] > shares[0]

    def test_ipv4_demand_monotonically_falls(self, sweep):
        leases = [p.ipv4_leases for p in sweep]
        assert leases == sorted(leases, reverse=True)

    def test_full_refresh_leaves_only_iot_on_ipv4(self, sweep):
        final = sweep[-1]
        # 1 legacy IoT box remains on IPv4 (and intervened); everything
        # else is RFC 8925 or macOS.
        assert final.ipv4_leases == 1
        assert final.intervened == 1
        assert final.rfc8925_grants == final.total - 1

    def test_intervention_count_constant_v4only_devices(self, sweep):
        # Windows 10 machines are dual-stack: refreshing them never
        # changes the intervened population (only the IoT box is hit).
        assert all(p.intervened == 1 for p in sweep)

    def test_grants_track_refresh_fraction(self, sweep):
        grants = [p.rfc8925_grants for p in sweep]
        assert grants == sorted(grants)
        assert grants[0] == 2  # the two Macs
        assert grants[-1] == sweep[-1].total - 1

    def test_table_renders(self, sweep):
        table = sweep_table(sweep)
        assert "100% refreshed" in table
        assert table.count("\n") == len(sweep)

    def test_custom_mix(self):
        mix = FleetMix(devices=((NINTENDO_SWITCH, 2), (WINDOWS_11_RFC8925, 3)), label="custom")
        (point,) = run_adoption_sweep([mix])
        assert point.total == 5
        assert point.intervened == 2
        assert point.rfc8925_grants == 3


class TestFleetSizes:
    @pytest.mark.parametrize("fleet_size", [FIXED_DEVICES - 1, 1, 0, -2])
    def test_refresh_mixes_reject_fleets_smaller_than_the_fixed_devices(self, fleet_size):
        with pytest.raises(ValueError, match="at least 3"):
            windows_refresh_mixes(fleet_size=fleet_size)

    def test_fleet_mix_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match="Windows 10: device count must be non-negative"):
            FleetMix(devices=((WINDOWS_11_RFC8925, 3), (WINDOWS_10, -1)))
        assert FleetMix(devices=((WINDOWS_10, 0),)).total == 0
