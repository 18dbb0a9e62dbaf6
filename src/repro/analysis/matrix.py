"""The device-outcome matrix (paper §V, prose results).

For every OS profile, bring a fresh client onto the testbed and record
the observable outcomes the paper reports per device: did it get IPv4?
did option 108 fire?  where does a browse to an ordinary site land?
does the OS connectivity probe say "online"?

Run with the intervention on and off to see exactly which devices the
poisoned DNS touches — the paper's central claim is that the set is
"IPv4-only clients, and nothing else".

With ``jobs>1`` the profile list is split into contiguous chunks, one
fresh testbed per chunk, executed across a
:class:`repro.parallel.SweepExecutor` worker pool.  Profiles never
influence each other's outcomes (each client only talks to the
infrastructure), so the merged table is byte-identical to the
single-testbed serial run — and ``jobs=1`` keeps the original one
testbed for the whole matrix.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.clients.profiles import ALL_PROFILES, OsProfile
from repro.core.metrics import SweepStats
from repro.core.testbed import Testbed, TestbedConfig
from repro.parallel import make_shards, owned_executor, ShardSpec, SweepExecutor
from repro.services.captive import connectivity_probe, ProbeOutcome

__all__ = [
    "DeviceOutcome",
    "run_device_matrix",
    "run_device_matrix_stats",
    "matrix_table",
]


@slotted_dataclass()
class DeviceOutcome:
    profile: str
    got_ipv4_lease: bool
    got_option_108: bool
    has_ipv6: bool
    clat_active: bool
    probe: ProbeOutcome
    browse_landed_on: Optional[str]
    browse_family: Optional[str]
    intervened: bool  # browse to a normal site got hijacked to ip6.me

    def row(self) -> str:
        return (
            f"{self.profile:28s} v4={str(self.got_ipv4_lease):5s} "
            f"opt108={str(self.got_option_108):5s} v6={str(self.has_ipv6):5s} "
            f"clat={str(self.clat_active):5s} probe={self.probe.value:7s} "
            f"browse→{self.browse_landed_on or 'FAIL':24s} ({self.browse_family or '-'}) "
            f"intervened={self.intervened}"
        )


def _measure_one(
    testbed: Testbed, index: int, profile: OsProfile, target_site: str
) -> DeviceOutcome:
    """Bring one client up and record its outcome row."""
    client = testbed.add_client(profile, f"dev-{index}-{profile.name}")
    probe = connectivity_probe(client)
    browse = client.fetch(target_site)
    return DeviceOutcome(
        profile=profile.name,
        got_ipv4_lease=client.host.ipv4_config is not None,
        got_option_108=client.host.v6only_wait is not None,
        has_ipv6=bool(client.host.ipv6_global_addresses()),
        clat_active=client.host.clat is not None and client.host.clat.enabled,
        probe=probe.outcome,
        browse_landed_on=browse.landed_on,
        browse_family=browse.family,
        intervened=browse.landed_on == "ip6.me" and target_site != "ip6.me",
    )


def _measure_profiles(spec: ShardSpec) -> List[DeviceOutcome]:
    """Worker: a fresh testbed, one client per profile in the chunk.

    This is the *object* worker — it retains every ``DeviceOutcome``
    because its callers (the matrix table, tests) consume the structured
    rows.  The accumulation is bounded by the profile catalogue (a few
    dozen rows), never by fleet size; fleet-bounded aggregation goes
    through :mod:`repro.analysis.fleet`.
    """
    config, profiles, start_index, target_site = spec.payload
    testbed = Testbed(replace(config, seed=spec.seed))
    outcomes: List[DeviceOutcome] = []
    for offset, profile in enumerate(profiles):
        outcome = _measure_one(testbed, start_index + offset, profile, target_site)
        outcomes.append(outcome)  # repro: allow[RL303]
    return outcomes


def _chunk_profiles(
    profiles: Sequence[OsProfile], shard_count: int
) -> List[Tuple[Tuple[OsProfile, ...], int]]:
    """Split into ``shard_count`` contiguous, balanced (chunk, start) pairs."""
    total = len(profiles)
    shard_count = max(1, min(shard_count, total))
    base, extra = divmod(total, shard_count)
    chunks = []
    start = 0
    for i in range(shard_count):
        size = base + (1 if i < extra else 0)
        chunks.append((tuple(profiles[start : start + size]), start))
        start += size
    return chunks


def run_device_matrix_stats(
    config: Optional[TestbedConfig] = None,
    profiles: Sequence[OsProfile] = ALL_PROFILES,
    target_site: str = "sc24.supercomputing.org",
    jobs: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
) -> Tuple[List[DeviceOutcome], SweepStats]:
    """The device matrix plus its sweep-execution statistics.

    ``jobs=1`` keeps the original shape — one testbed, one client per
    profile; ``jobs=N`` runs ``N`` chunk-testbeds concurrently and
    concatenates their rows in profile order.
    """
    config = config or TestbedConfig()
    profiles = list(profiles)
    with owned_executor(executor, jobs=jobs) as ex:
        chunks = _chunk_profiles(profiles, ex.jobs)
        specs = make_shards(
            [(config, chunk, start, target_site) for chunk, start in chunks],
            base_seed=config.seed,
            costs=[float(len(chunk)) for chunk, _start in chunks],
        )
        merged: List[DeviceOutcome] = []
        for rows in ex.map(_measure_profiles, specs, label="device matrix"):
            merged.extend(rows)
        return merged, ex.last_stats


def run_device_matrix(
    config: Optional[TestbedConfig] = None,
    profiles: Sequence[OsProfile] = ALL_PROFILES,
    target_site: str = "sc24.supercomputing.org",
    jobs: Optional[int] = None,
    executor: Optional[SweepExecutor] = None,
) -> List[DeviceOutcome]:
    """One client per profile, full outcome row each (optionally sharded)."""
    outcomes, _stats = run_device_matrix_stats(
        config, profiles, target_site, jobs=jobs, executor=executor
    )
    return outcomes


def matrix_table(outcomes: Sequence[DeviceOutcome]) -> str:
    return "\n".join(o.row() for o in outcomes)
