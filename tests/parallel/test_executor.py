"""The sweep executor: shards run in order, in the calling process, with
their derive_seed seeds, and the executor bills their payload bytes."""

import pytest

from repro.parallel import derive_seed, make_shards, ShardPayload, ShardSpec, SweepExecutor


def _double(spec: ShardSpec):
    return spec.payload * 2


def _echo_seed(spec: ShardSpec):
    return spec.seed


def _with_stats(spec: ShardSpec):
    return ShardPayload(spec.payload + 1, ipc_bytes=spec.payload)


def _fail_on_two(spec: ShardSpec):
    if spec.payload == 2:
        raise RuntimeError(f"shard {spec.index} exploded")
    return spec.payload


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(2024, 5) == derive_seed(2024, 5)

    def test_distinct_across_shards_and_bases(self):
        seeds = {derive_seed(2024, i) for i in range(200)}
        assert len(seeds) == 200
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_range(self):
        for i in range(50):
            seed = derive_seed(0xDEADBEEF, i)
            assert 0 <= seed < 1 << 63

    def test_make_shards_applies_rule(self):
        specs = make_shards(["a", "b", "c"], base_seed=7)
        assert [s.index for s in specs] == [0, 1, 2]
        assert [s.seed for s in specs] == [derive_seed(7, i) for i in range(3)]
        assert [s.payload for s in specs] == ["a", "b", "c"]


class TestSweepExecutor:
    def test_values_in_spec_order(self):
        specs = make_shards(list(range(10)), base_seed=1)
        assert SweepExecutor().map(_double, specs) == [i * 2 for i in range(10)]

    def test_shards_see_their_derived_seeds(self):
        specs = make_shards([None] * 6, base_seed=2024)
        assert SweepExecutor().map(_echo_seed, specs) == [derive_seed(2024, i) for i in range(6)]

    def test_payload_stats_folded(self):
        specs = make_shards([10, 20, 30], base_seed=0)
        executor = SweepExecutor()
        assert executor.map(_with_stats, specs) == [11, 21, 31]
        stats = executor.last_stats
        assert [s.ipc_bytes for s in stats.shards] == [10, 20, 30]
        assert stats.total_ipc_bytes == 60
        assert [(s.index, s.seed) for s in stats.shards] == [
            (spec.index, spec.seed) for spec in specs
        ]

    def test_a_failing_shard_raises(self):
        specs = make_shards([1, 2, 3], base_seed=0)
        with pytest.raises(RuntimeError, match="shard 1 exploded"):
            SweepExecutor().map(_fail_on_two, specs)

    def test_empty_specs(self):
        executor = SweepExecutor()
        assert executor.map(_double, []) == []
        assert executor.last_stats.shards == []
