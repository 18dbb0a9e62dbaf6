"""Sweep execution over independent shards, with deterministic seeds.

The paper's headline results are sweeps over *independent* testbeds —
one fresh client fleet per refresh stage (§VII), one fresh client per
OS profile (§V).  Independent testbeds share no simulated events, so a
sweep is a loop over shards whose outcomes concatenate in shard order.

Entry points:

- :class:`SweepExecutor` — runs a sweep's shards in order, in the
  calling process, and records one statistics row per shard;
- :func:`derive_seed` — the one per-shard seed rule, so a shard's RNG
  stream depends only on the base seed and the shard index;
- :func:`make_shards` / :class:`ShardSpec` / :class:`ShardPayload` —
  the job protocol; a :class:`ShardPayload` bills the bulk bytes a
  worker hands back;
- :func:`chunk_ranges` — contiguous device-range chunking for the
  columnar fleet population path.
"""

from repro.parallel.executor import SweepExecutor
from repro.parallel.shard import (
    chunk_ranges,
    derive_seed,
    make_shards,
    ShardPayload,
    ShardSpec,
)

__all__ = [
    "SweepExecutor",
    "ShardPayload",
    "ShardSpec",
    "chunk_ranges",
    "derive_seed",
    "make_shards",
]
