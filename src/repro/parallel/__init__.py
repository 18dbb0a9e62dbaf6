"""Sharded parallel sweep execution with deterministic merge.

The paper's headline results are sweeps over *independent* testbeds —
one fresh client fleet per refresh stage (§VII), one fresh client per
OS profile (§V).  Independent testbeds share no simulated events, so
the sweep parallelises as pure replication: this package fans the
shards out over a reusable ``multiprocessing`` pool and merges the
results in a way that is byte-identical to the serial run.

Entry points:

- :class:`SweepExecutor` — serial/process backends, warm pool reuse,
  per-shard timeout, crash retry, structured failure rows;
- :func:`derive_seed` — the one per-shard seed rule both backends
  apply, so ``jobs=1`` and ``jobs=N`` agree byte-for-byte;
- :func:`make_shards` / :class:`ShardSpec` / :class:`ShardPayload` /
  :class:`ShardResult` — the picklable job protocol; results travel
  home pickled, and a :class:`ShardPayload` bills the bulk bytes it
  carries;
- :func:`chunk_ranges` — contiguous device-range chunking for the
  columnar fleet population path;
- :func:`plan_chunks` — the deterministic, cost-weighted grouping of
  shards into pool submissions;
- :func:`owned_executor` — the call-site idiom: borrow a caller's warm
  executor or own (and always close) a fresh one.
"""

from repro.parallel.executor import (
    ensure_ok,
    fork_available,
    JOBS_ENV_VAR,
    owned_executor,
    plan_chunks,
    resolve_jobs,
    SweepExecutor,
)
from repro.parallel.shard import (
    chunk_ranges,
    derive_seed,
    make_shards,
    ShardPayload,
    ShardResult,
    ShardSpec,
)

__all__ = [
    "JOBS_ENV_VAR",
    "SweepExecutor",
    "ShardPayload",
    "ShardResult",
    "ShardSpec",
    "chunk_ranges",
    "derive_seed",
    "ensure_ok",
    "fork_available",
    "make_shards",
    "owned_executor",
    "plan_chunks",
    "resolve_jobs",
]
