"""The shared-memory shard transport: arena layout, crash safety, hygiene.

Worker functions live at module level so the fork pool can pickle them
by reference (same convention as test_executor).
"""

import os
import signal

import pytest

from repro.parallel import (
    fork_available,
    make_shards,
    owned_executor,
    plan_chunks,
    resolve_transport,
    ShardPayload,
    ShardSpec,
    SweepExecutor,
)
from repro.parallel import executor as executor_module
from repro.parallel.shm import (
    ArenaTornWrite,
    open_window,
    scan_segments,
    SharedColumnArena,
    shm_available,
)

needs_shm = pytest.mark.skipif(not shm_available(), reason="needs POSIX shared memory")
needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _write_window(spec: ShardSpec):
    """Worker: write the payload bytes into the claimed window and commit."""
    window, data = spec.payload
    with open_window(window) as writer:
        writer.write("col", data)
        committed = writer.commit()
    return ShardPayload((window.slot, committed))


def _write_window_or_die(spec: ShardSpec):
    """Worker: first attempt dies by SIGKILL *mid-write* (after the column
    bytes land, before the commit stamp); the retry completes normally."""
    window, marker, data = spec.payload
    with open_window(window) as writer:
        writer.write("col", data)
        if marker and not os.path.exists(marker):
            with open(marker, "w") as fh:
                fh.write("died mid-write")
            os.kill(os.getpid(), signal.SIGKILL)
        committed = writer.commit()
    return ShardPayload((window.slot, committed))


@needs_shm
class TestArenaLayout:
    def test_round_trip_through_windows(self):
        with SharedColumnArena.create(("a", "b"), 10, [(0, 4), (4, 10)]) as arena:
            assert arena.generation == 1
            assert arena.shard_count == 2
            for slot, (start, stop) in enumerate(arena.ranges):
                with open_window(arena.window(slot)) as writer:
                    writer.write("a", bytes([slot + 1]) * (stop - start))
                    writer.write("b", bytes([slot + 9]) * (stop - start))
                    committed = writer.commit()
                arena.verify(slot, committed)
            assert bytes(arena.column_view("a")) == b"\x01" * 4 + b"\x02" * 6
            assert bytes(arena.column_view("b")) == b"\x09" * 4 + b"\x0a" * 6
            assert bytes(arena.shard_view(1, "a")) == b"\x02" * 6
            assert dict(arena.iter_buffers()).keys() == {"a", "b"}

    def test_window_tickets_are_layout_claims(self):
        with SharedColumnArena.create(("x",), 8, [(0, 8)]) as arena:
            window = arena.window(0)
            assert (window.start, window.stop) == (0, 8)
            assert window.columns == ("x",)
            with pytest.raises(IndexError):
                arena.window(1)

    def test_writer_rejects_wrong_sizes_and_columns(self):
        with SharedColumnArena.create(("x",), 8, [(0, 4)]) as arena:
            with open_window(arena.window(0)) as writer:
                with pytest.raises(ValueError, match="4"):
                    writer.write("x", b"too long for the window")
                with pytest.raises(KeyError):
                    writer.write("y", b"1234")

    def test_create_validates_geometry(self):
        with pytest.raises(ValueError, match="at least one column"):
            SharedColumnArena.create((), 4, [(0, 4)])
        with pytest.raises(ValueError, match="positive"):
            SharedColumnArena.create(("x",), 0, [(0, 0)])
        with pytest.raises(ValueError, match="outside"):
            SharedColumnArena.create(("x",), 4, [(0, 5)])

    def test_release_unlinks_and_is_idempotent(self):
        before = scan_segments()
        arena = SharedColumnArena.create(("x",), 4, [(0, 4)])
        assert arena.name in scan_segments()
        arena.release()
        arena.release()
        assert scan_segments() == before


@needs_shm
class TestGenerationStamps:
    def test_unwritten_slot_is_torn(self):
        with SharedColumnArena.create(("x",), 4, [(0, 4)]) as arena:
            with pytest.raises(ArenaTornWrite, match="stamp 0"):
                arena.verify(0, 0)

    def test_recycled_pool_write_is_rejected(self):
        """A writer that opened before a recycle stamps the *old*
        generation — exactly what an orphaned worker surviving a pool
        recycle would do — and the parent must reject it."""
        with SharedColumnArena.create(("x",), 4, [(0, 4)]) as arena:
            stale = open_window(arena.window(0))
            assert arena.bump_generation() == 2
            fresh = open_window(arena.window(0))
            fresh.write("x", b"good")
            accepted = fresh.commit()
            fresh.close()
            arena.verify(0, accepted)
            # The orphan's late commit overwrites the stamp with gen 1.
            stale.write("x", b"torn")
            stale.commit()
            stale.close()
            with pytest.raises(ArenaTornWrite):
                arena.verify(0, accepted)


class TestTransportResolution:
    def test_serial_backend_is_always_pickle(self):
        assert resolve_transport("auto", "serial") == "pickle"
        assert resolve_transport("shm", "serial") == "pickle"

    def test_explicit_pickle_wins(self):
        assert resolve_transport("pickle", "process") == "pickle"

    @needs_shm
    def test_auto_prefers_shm_on_process_backend(self):
        assert resolve_transport("auto", "process") == "shm"
        assert resolve_transport("shm", "process") == "shm"

    def test_degrades_without_shared_memory(self, monkeypatch):
        monkeypatch.setattr(executor_module, "shm_available", lambda: False)
        assert executor_module.resolve_transport("shm", "process") == "pickle"

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            resolve_transport("carrier-pigeon", "process")

    def test_serial_executor_opens_no_arena(self):
        with SweepExecutor(jobs=1, transport="shm") as executor:
            assert executor.transport == "pickle"
            assert executor.open_arena(("x",), 4, [(0, 4)]) is None


class TestPlanChunks:
    def _specs(self, costs):
        return make_shards(list(range(len(costs))), base_seed=0, costs=costs)

    def test_explicit_chunk_size_is_fixed_slicing(self):
        specs = self._specs([1.0] * 7)
        plan = plan_chunks(specs, jobs=4, chunk_size=3)
        assert [len(c) for c in plan] == [3, 3, 1]

    def test_covers_all_specs_in_order(self):
        specs = self._specs([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        plan = plan_chunks(specs, jobs=2)
        flat = [spec for chunk in plan for spec in chunk]
        assert [s.index for s in flat] == [s.index for s in specs]

    def test_deterministic_for_same_inputs(self):
        costs = [float((i * 37) % 11 + 1) for i in range(40)]
        a = plan_chunks(self._specs(costs), jobs=4)
        b = plan_chunks(self._specs(costs), jobs=4)
        assert [[s.index for s in c] for c in a] == [[s.index for s in c] for c in b]

    def test_cost_weighting_shrinks_toward_the_tail(self):
        """Uniform costs: early chunks are large (amortized dispatch),
        the tail splits into single-spec chunks for redistribution."""
        plan = plan_chunks(self._specs([1.0] * 64), jobs=4)
        assert len(plan[0]) > 1
        assert len(plan[-1]) == 1
        assert len(plan) > 4  # more chunks than workers: work can rebalance

    def test_heavy_spec_closes_its_chunk(self):
        """A spec whose cost exceeds the chunk target ends the chunk:
        cheap specs after it can never be serialized behind it."""
        plan = plan_chunks(self._specs([1.0, 1.0, 100.0, 1.0, 1.0]), jobs=2)
        (heavy,) = [c for c in plan if any(s.index == 2 for s in c)]
        assert heavy[-1].index == 2


@needs_shm
@needs_fork
class TestExecutorArenaLifecycle:
    def test_sweep_writes_columns_without_piping_bytes(self):
        before = scan_segments()
        with SweepExecutor(jobs=2, transport="shm") as executor:
            assert executor.transport == "shm"
            arena = executor.open_arena(("col",), 12, [(0, 5), (5, 12)])
            payloads = [(arena.window(0), b"a" * 5), (arena.window(1), b"b" * 7)]
            results = executor.run(_write_window, make_shards(payloads, base_seed=3))
            assert all(r.ok for r in results)
            for result in results:
                slot, committed = result.value
                arena.verify(slot, committed)
            assert bytes(arena.column_view("col")) == b"a" * 5 + b"b" * 7
            assert executor.last_stats.transport == "shm"
            assert executor.last_stats.total_ipc_bytes == 0
        assert scan_segments() == before

    def test_close_releases_unreturned_arenas(self):
        before = scan_segments()
        executor = SweepExecutor(jobs=2, transport="shm")
        executor.open_arena(("col",), 4, [(0, 4)])
        assert len(scan_segments()) == len(before) + 1
        executor.close()
        assert scan_segments() == before

    def test_one_pool_loss_bumps_generation_once(self):
        """After a worker dies, the futures the first recycle cancelled
        each call ``_recycle_pool`` again; only the call that dropped a
        live pool may bump the arena generation."""
        with SweepExecutor(jobs=2, transport="shm") as executor:
            arena = executor.open_arena(("col",), 4, [(0, 4)])
            assert arena.generation == 1
            executor._ensure_pool()
            executor._recycle_pool()
            executor._recycle_pool()
            assert arena.generation == 2

    def test_worker_killed_mid_write_retries_byte_identical(self, tmp_path):
        """Satellite: SIGKILL a worker after its column bytes land but
        before the commit stamp.  The retry (under a recycled pool and a
        bumped generation) must produce byte-identical columns, and no
        segment may leak."""
        before = scan_segments()
        data = [b"\x11" * 6, b"\x22" * 10]
        with SweepExecutor(jobs=2, transport="shm", chunk_size=1) as executor:
            arena = executor.open_arena(("col",), 16, [(0, 6), (6, 16)])
            payloads = [
                (arena.window(0), str(tmp_path / "crash-marker"), data[0]),
                (arena.window(1), "", data[1]),
            ]
            results = executor.run(_write_window_or_die, make_shards(payloads, base_seed=5))
            assert all(r.ok for r in results)
            crashed = results[0]
            assert crashed.attempts == 2  # first attempt died mid-write
            # The recycle bumped the generation, so the accepted retry
            # committed under a generation the torn write never stamped.
            assert arena.generation == 2
            for result in results:
                slot, committed = result.value
                arena.verify(slot, committed)
                assert bytes(arena.shard_view(slot, "col")) == data[slot]
        assert scan_segments() == before


class TestOwnedExecutor:
    def test_no_del_finalizer(self):
        # Shutdown is structural (context managers all the way down),
        # never interpreter-dependent garbage collection.
        assert "__del__" not in SweepExecutor.__dict__

    def test_constructed_executor_is_closed(self):
        with owned_executor(None, jobs=1) as executor:
            executor.run(_write_window, [])
            assert executor.last_stats is not None
        assert executor._pool is None
        assert executor._arenas == []

    @needs_fork
    def test_borrowed_executor_stays_open(self):
        with SweepExecutor(jobs=2) as outer:
            outer.run(_double_payload, make_shards([1, 2], base_seed=0))
            pool = outer._pool
            with owned_executor(outer, jobs=4) as inner:
                assert inner is outer
            assert outer._pool is pool  # context did not close the warm pool


def _double_payload(spec: ShardSpec):
    return spec.payload * 2
