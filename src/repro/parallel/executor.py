"""The sweep executor: serial and process backends behind one API.

:class:`SweepExecutor` fans :class:`~repro.parallel.shard.ShardSpec`
jobs out to a reusable ``fork``-based process pool (or runs them
inline), retries crashed shards once, enforces an optional per-shard
timeout, and merges the outcomes back in input order so a parallel
sweep is indistinguishable from a serial one — except for the wall
clock.

Backend selection:

- ``jobs=1`` (the default) always takes the zero-overhead serial
  path — no pool, no pickling, exactly the work a plain ``for`` loop
  would do;
- ``jobs>1`` uses a warm ``ProcessPoolExecutor`` reused across
  ``run()`` calls (sweep points share the pool, so workers fork once);
- platforms without the ``fork`` start method fall back to serial
  gracefully — correctness never depends on the backend.

``jobs`` resolves from the explicit argument, then the ``REPRO_JOBS``
environment variable, then ``1``; ``0`` or negative means "all cores".

On the process backend every worker return value travels home pickled
through the pool's pipe.  A worker that ships bulk bytes says how many
in its :class:`~repro.parallel.shard.ShardPayload`, and
:attr:`SweepExecutor.last_stats` sums them into the sweep's IPC bill.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.metrics import ShardStats, SweepStats
from repro.parallel.shard import ShardPayload, ShardResult, ShardSpec

__all__ = [
    "SweepExecutor",
    "owned_executor",
    "plan_chunks",
    "resolve_jobs",
    "fork_available",
    "ensure_ok",
    "JOBS_ENV_VAR",
]

#: Environment variable consulted when no explicit ``jobs`` is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: (value, error) — the raw wire entry a worker produces per shard.
_Entry = Tuple[Any, Optional[str]]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` > 1; ≤0 → all cores.

    A malformed ``REPRO_JOBS`` (e.g. ``"four"``) falls back to 1 worker,
    but says so once on stderr — a sweep silently running serial because
    of an environment typo is indistinguishable from a slow machine.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            print(
                f"repro.parallel: ignoring invalid {JOBS_ENV_VAR}={raw!r} "
                "(expected an integer); running with 1 worker",
                file=sys.stderr,
            )
            jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def fork_available() -> bool:
    """Whether the platform offers the ``fork`` start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def plan_chunks(
    specs: Sequence[ShardSpec], jobs: int, chunk_size: Optional[int] = None
) -> List[List[ShardSpec]]:
    """Group specs into pool submissions: adaptive, deterministic, in order.

    With an explicit ``chunk_size`` this is plain fixed-size slicing
    (tests pin dispatch behaviour with it).  Otherwise the plan is
    guided self-scheduling, size-weighted by each spec's ``cost`` hint:

    - early chunks target half an even worker share of the *remaining*
      cost (large chunks amortize dispatch while the pool is saturated),
      shrinking as the sweep drains but never below 1/6 of a worker's
      even share;
    - the tail — the last one-worker's-worth of cost — splits into
      single-spec chunks (bounded at ``4*jobs``), the redistribution
      pass that stops one straggler shard from serializing the finish.

    The plan depends only on ``(costs, jobs, chunk_size)`` — never on
    timing — and chunks preserve spec order, so any plan merges back
    byte-identically.
    """
    spec_list = list(specs)
    if chunk_size is not None:
        size = max(1, chunk_size)
        return [spec_list[i : i + size] for i in range(0, len(spec_list), size)]
    jobs = max(1, jobs)
    costs = [spec.cost if spec.cost > 0 else 1.0 for spec in spec_list]
    total = sum(costs)
    tail_cost = total - total / jobs  # consumed cost at which the tail begins
    tail_budget = 4 * jobs  # bounded redistribution: at most this many tail chunks
    chunks: List[List[ShardSpec]] = []
    current: List[ShardSpec] = []
    current_cost = 0.0
    consumed = 0.0
    for spec, cost in zip(spec_list, costs):
        in_tail = consumed >= tail_cost and tail_budget > 0
        remaining = total - consumed
        target = 0.0 if in_tail else max(remaining / (2 * jobs), total / (6 * jobs))
        current.append(spec)
        current_cost += cost
        consumed += cost
        if current_cost >= target:
            chunks.append(current)
            if in_tail:
                tail_budget -= 1
            current = []
            current_cost = 0.0
    if current:
        chunks.append(current)
    return chunks


def _run_shard(fn: Callable[[ShardSpec], Any], spec: ShardSpec) -> _Entry:
    """Run one shard, trapping exceptions into the entry.

    Executes inside the worker process (or inline on the serial path);
    catching here means an ordinary worker exception comes back as data
    instead of poisoning the pool.
    """
    try:
        return fn(spec), None
    except Exception:
        return None, traceback.format_exc(limit=16)


def _run_chunk(fn: Callable[[ShardSpec], Any], specs: Sequence[ShardSpec]) -> List[_Entry]:
    """Worker entry point: run a chunk of shards, one entry each."""
    return [_run_shard(fn, spec) for spec in specs]


def ensure_ok(results: Sequence[ShardResult], label: str) -> None:
    """Raise with every failure row's tail if any shard failed its retry."""
    failed = [r for r in results if r.error is not None]
    if not failed:
        return
    details = "; ".join(
        f"shard {r.index} (after {r.attempts} attempt{'s' if r.attempts > 1 else ''}): "
        f"{r.error.strip().splitlines()[-1]}"
        for r in failed
    )
    raise RuntimeError(f"{label}: {len(failed)} of {len(results)} shards failed — {details}")


class SweepExecutor:
    """Execute independent shards serially or across a warm process pool."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        backend: str = "auto",
        timeout: Optional[float] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if backend not in ("auto", "serial", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        self.jobs = resolve_jobs(jobs)
        if self.jobs == 1 or not fork_available():
            # jobs=1 must stay a zero-overhead loop, and a fork-less
            # platform (e.g. Windows spawn-only) degrades gracefully.
            backend = "serial"
        elif backend == "auto":
            backend = "process"
        self.backend = backend
        self.timeout = timeout
        self.chunk_size = chunk_size
        self.last_stats: Optional[SweepStats] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=multiprocessing.get_context("fork")
            )
        return self._pool

    def _recycle_pool(self) -> None:
        """Drop a poisoned pool (crash/timeout); the next use forks afresh."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run(
        self, fn: Callable[[ShardSpec], Any], specs: Iterable[ShardSpec]
    ) -> List[ShardResult]:
        """Run every shard; return one result row per spec, in spec order.

        Failures never raise from here — they surface as rows whose
        ``error`` is set (use :func:`ensure_ok` to escalate).  After the
        call, :attr:`last_stats` holds the merged per-shard statistics.
        """
        spec_list = list(specs)
        if not spec_list:
            results: List[ShardResult] = []
            used = self.backend
        elif self.backend == "serial" or len(spec_list) == 1:
            results = self._run_serial(fn, spec_list)
            used = "serial"
        else:
            results = self._run_process(fn, spec_list)
            used = "process"
        self.last_stats = SweepStats(
            jobs=self.jobs,
            backend=used,
            shards=[
                ShardStats(
                    index=r.index,
                    seed=r.seed,
                    ipc_bytes=r.ipc_bytes,
                    attempts=r.attempts,
                    error=r.error,
                )
                for r in results
            ],
        )
        return results

    def map(
        self, fn: Callable[[ShardSpec], Any], specs: Iterable[ShardSpec], label: str = "sweep"
    ) -> List[Any]:
        """Like :meth:`run` but return bare values, raising on any failure."""
        results = self.run(fn, specs)
        ensure_ok(results, label)
        return [r.value for r in results]

    # -- backends ------------------------------------------------------------

    def _run_serial(
        self, fn: Callable[[ShardSpec], Any], specs: Sequence[ShardSpec]
    ) -> List[ShardResult]:
        results = []
        for spec in specs:
            value, error = _run_shard(fn, spec)
            attempts = 1
            if error is not None:
                value, error = _run_shard(fn, spec)
                attempts = 2
            results.append(self._to_result(spec, value, error, attempts))
        return results

    def _run_process(
        self, fn: Callable[[ShardSpec], Any], specs: Sequence[ShardSpec]
    ) -> List[ShardResult]:
        chunks = plan_chunks(specs, self.jobs, self.chunk_size)
        first: Dict[int, _Entry] = {}
        final: Dict[int, _Entry] = {}  # timeout/dispatch failures: not retryable
        retry: List[ShardSpec] = []

        pool = self._ensure_pool()
        pending = [(chunk, pool.submit(_run_chunk, fn, chunk)) for chunk in chunks]
        for chunk, future in pending:
            budget = self.timeout * len(chunk) if self.timeout else None
            try:
                for spec, entry in zip(chunk, future.result(timeout=budget)):
                    first[spec.index] = entry
                    if entry[1] is not None:  # in-worker exception → one retry
                        retry.append(spec)
            except FutureTimeout:
                # The worker is still grinding on the shard and cannot be
                # preempted — drop the whole pool and fail the chunk.  No
                # retry: a shard that hangs once will hang again.
                self._recycle_pool()
                for spec in chunk:
                    final[spec.index] = (None, f"shard timed out after {budget:.3g}s")
            except (BrokenProcessPool, CancelledError):
                # A worker died mid-chunk, or recycling cancelled the
                # future under us; either way each shard gets its retry.
                self._recycle_pool()
                retry.extend(chunk)
            except Exception as exc:  # e.g. an unpicklable payload
                for spec in chunk:
                    final[spec.index] = (None, f"dispatch failed: {exc!r}")

        retried: Dict[int, _Entry] = {}
        if retry:
            pool = self._ensure_pool()
            rpending = [(spec, pool.submit(_run_chunk, fn, [spec])) for spec in retry]
            for spec, future in rpending:
                try:
                    retried[spec.index] = future.result(timeout=self.timeout)[0]
                except FutureTimeout:
                    self._recycle_pool()
                    retried[spec.index] = (
                        None,
                        f"shard timed out after {self.timeout:.3g}s on retry",
                    )
                except (BrokenProcessPool, CancelledError) as exc:
                    self._recycle_pool()
                    retried[spec.index] = (None, f"worker crashed twice: {exc!r}")
                except Exception as exc:
                    retried[spec.index] = (None, f"dispatch failed on retry: {exc!r}")

        results = []
        for spec in specs:
            if spec.index in retried:
                value, error = retried[spec.index]
                attempts = 2
            elif spec.index in final:
                value, error = final[spec.index]
                attempts = 1
            else:
                value, error = first[spec.index]
                attempts = 1
            results.append(self._to_result(spec, value, error, attempts))
        return results

    @staticmethod
    def _to_result(spec: ShardSpec, value: Any, error: Optional[str], attempts: int) -> ShardResult:
        result = ShardResult(index=spec.index, seed=spec.seed, attempts=attempts, error=error)
        if isinstance(value, ShardPayload):
            result.value = value.value
            result.ipc_bytes = value.ipc_bytes
        else:
            result.value = value
        return result


@contextlib.contextmanager
def owned_executor(
    executor: Optional[SweepExecutor], **kwargs: Any
) -> Iterator[SweepExecutor]:
    """Yield a caller-provided executor as-is, or own a fresh one.

    The one idiom every ``repro.analysis`` sweep uses: a caller-supplied
    executor stays the caller's to close (warm pools survive across
    sweep points), while an executor this context constructed is always
    closed on exit — fork pools never outlive the sweep that created
    them, without any ``__del__`` finalizer.
    """
    if executor is not None:
        yield executor
        return
    own = SweepExecutor(**kwargs)
    try:
        yield own
    finally:
        own.close()
