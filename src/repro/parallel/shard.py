"""The shard protocol: job descriptions, seeds and outcome payloads.

A *shard* is one independent unit of a sweep — one fleet mix of the
§VII adoption trajectory, the §V device matrix, one device range of a
fleet stage.  Shards share no simulated events, so a sweep runs them
one after another on fresh testbeds and concatenates their outcomes.

:class:`ShardSpec` tells a worker what to run and with which seed; the
worker answers with either a bare value or a :class:`ShardPayload`
wrapping the value with the bulk bytes it produced.

Seeds follow one rule — :func:`derive_seed` — so a shard's RNG stream
depends only on the sweep's base seed and the shard's index, never on
the order the shards run in.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro._compat import slotted_dataclass

__all__ = [
    "derive_seed",
    "chunk_ranges",
    "make_shards",
    "ShardSpec",
    "ShardPayload",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the splitmix64 increment


def derive_seed(base_seed: int, shard_index: int) -> int:
    """Derive the engine seed for shard ``shard_index`` of a sweep.

    A single splitmix64 step over ``base_seed + (index+1) * golden``:
    deterministic, order-free (shard 7 gets the same seed whether it
    runs first or last), and well-mixed so
    neighbouring shards don't get correlated RNG streams.  The result
    is clamped to a non-negative 63-bit value, comfortably inside
    every consumer's seed range.

    **Collision guarantee (million-shard fleets).**  For a fixed
    ``base_seed``, distinct shard indices produce distinct 64-bit
    values before the final clamp: the pre-mix input
    ``base + (i+1)·golden mod 2^64`` is injective in ``i`` over any
    window of 2^64 indices (the golden-ratio increment is odd, hence a
    unit modulo 2^64), and the splitmix64 finalizer is a bijection on
    64-bit words.  The only collision source left is the final drop to
    63 bits, which can pair at most two distinct 64-bit outputs per
    63-bit value; for a fleet of ``n`` shards the expected number of
    such pairs is ``n·(n-1)/2^64`` — about 1 in 17 million sweeps at
    n = 2^20 shards, and 0 for every base seed our deterministic tests
    sample (see ``tests/parallel/test_seed_property.py``, which proves
    a dense 2^20-index window plus sparse indices up to 2^40 collision
    free).  Engine seeds across shards of one sweep can therefore be
    treated as unique at million-shard scale.
    """
    z = (int(base_seed) + (shard_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFF


@slotted_dataclass(frozen=True)
class ShardSpec:
    """One job description: what to run and with which seed."""

    index: int
    seed: int
    payload: Any = None


@slotted_dataclass()
class ShardPayload:
    """What a worker returns when it reports the bulk bytes it produced.

    Workers may also return any bare value.  Wrapping it in a payload
    carries ``ipc_bytes`` into the shard's
    :class:`repro.core.metrics.ShardStats` row, which
    :attr:`repro.core.metrics.SweepStats.total_ipc_bytes` sums into the
    fleet sweep's IPC bill.
    """

    value: Any
    #: Bulk payload bytes the worker hands back — the fleet's
    #: per-device columns.  The O(1) fold struct that rides along is
    #: not counted.
    ipc_bytes: int = 0


def make_shards(payloads: Iterable[Any], base_seed: int) -> List[ShardSpec]:
    """Wrap payloads into specs, seeding each via :func:`derive_seed`."""
    return [
        ShardSpec(index=i, seed=derive_seed(base_seed, i), payload=payload)
        for i, payload in enumerate(payloads)
    ]


def chunk_ranges(total: int, min_chunk: int = 1) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into contiguous balanced ``(start, stop)`` chunks.

    Each chunk holds at least ``min_chunk`` items (unless ``total`` is
    smaller), so a small population does not break into per-device
    crumbs.
    """
    if total <= 0:
        return []
    chunk_count = max(1, total // max(1, min_chunk))
    base, extra = divmod(total, chunk_count)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for i in range(chunk_count):
        size = base + (1 if i < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges
