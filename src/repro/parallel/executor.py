"""The sweep executor: every shard runs in order, in the calling process.

:class:`SweepExecutor` calls a sweep's worker on each
:class:`~repro.parallel.shard.ShardSpec` in spec order and returns the
values in that order.  A shard that raises propagates its exception:
a sweep is deterministic, so a rerun in the same process could only
fail the same way.

A worker that reports the bulk bytes it produced says how many in its
:class:`~repro.parallel.shard.ShardPayload`, and
:attr:`SweepExecutor.last_stats` sums them into the sweep's IPC bill.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List

from repro.core.metrics import ShardStats, SweepStats
from repro.parallel.shard import ShardPayload, ShardSpec

__all__ = ["SweepExecutor"]


class SweepExecutor:
    """Run a sweep's independent shards one after another."""

    def __init__(self) -> None:
        #: One row per shard of the last :meth:`map` call.
        self.last_stats = SweepStats()

    def map(self, fn: Callable[[ShardSpec], Any], specs: Iterable[ShardSpec]) -> List[Any]:
        """Call ``fn`` on every spec in order; return the bare values.

        After the call, :attr:`last_stats` holds one row per shard: its
        index, its seed and the IPC bytes its payload reported.
        """
        values: List[Any] = []
        shards: List[ShardStats] = []
        for spec in specs:
            value = fn(spec)
            ipc_bytes = 0
            if isinstance(value, ShardPayload):
                value, ipc_bytes = value.value, value.ipc_bytes
            values.append(value)
            shards.append(ShardStats(index=spec.index, seed=spec.seed, ipc_bytes=ipc_bytes))
        self.last_stats = SweepStats(shards=shards)
        return values
