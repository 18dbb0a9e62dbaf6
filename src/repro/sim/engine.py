"""The discrete-event engine: one heap of ``(time, sequence)`` entries.

Entries are mutable ``[when, sequence, callback, args]`` lists in a
single :mod:`heapq`.  Dispatch order is ``(when, sequence)``: ties
break by insertion order, and every trace, table and counter the
simulator prints depends on that order.

Nothing is ever cancelled: every entry queued runs.  Dispatch clears
the callback and args slots of the entry it runs, so a fired entry
keeps nothing alive and reads as delivered (:mod:`repro.sim.link`
checks the callback slot before it adds a frame to a pending delivery).

The queue stays shallow: it never holds more than 12 entries in a
traced 300-arrival ``show_floor`` round (seed 1), nor more than 18 in
any CLI command, because a switch flood or a same-tick link burst is
one entry (:mod:`repro.sim.link`) and a periodic timer keeps one
pending tick (:meth:`EventEngine.schedule_every`).

This module is the one place in the tree allowed to touch :mod:`heapq`
directly — it owns the ``(time, sequence)`` tie-break contract (RL106).
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, List, Optional

__all__ = ["EventEngine"]

#: A queue entry: ``[when, sequence, callback, args]``; the callback
#: slot is ``None`` once the entry fired.  A mutable list (not a tuple
#: or an object) so a pending delivery can be patched in place.
Entry = List[Any]


class EventEngine:
    """Deterministic event scheduler and simulated clock."""

    def __init__(self, seed: int = 2024) -> None:
        self._queue: List[Entry] = []
        self._sequence = 0
        self._now = 0.0
        self.rng = random.Random(seed)
        self.events_run = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    def clock(self) -> float:
        """The clock as a callable (handed to caches, leases, sessions)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Entry:
        """Run ``callback(*args)`` ``delay`` seconds from now (0 is allowed).

        Passing ``args`` directly avoids a closure allocation per event,
        which matters on the frame-delivery path where every transmitted
        frame schedules exactly one delivery.

        Returns the queue entry.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay}")
        self._sequence = seq = self._sequence + 1
        entry = [self._now + delay, seq, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_every(self, interval: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` now and then every ``interval`` seconds, for
        as long as the simulation runs.

        Each timer keeps one pending entry: the next period's tick is
        queued before the first tick, and each tick re-arms after its
        callback returns, so a timer's period is measured from its own
        start.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")

        def tick() -> None:
            callback()
            self.schedule(interval, tick)

        self.schedule(interval, tick)
        self.schedule(0.0, callback)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next event.  Returns False when nothing is pending."""
        queue = self._queue
        if not queue:
            return False
        entry = heapq.heappop(queue)
        self._now = entry[0]
        self.events_run += 1
        callback, args = entry[2], entry[3]
        entry[2] = entry[3] = None
        callback(*args)
        return True

    def run_until(
        self,
        condition: Optional[Callable[[], bool]] = None,
        deadline: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> bool:
        """Pump events until ``condition()`` is true (returns True), the
        ``deadline`` (absolute simulated time) passes, or the queue
        drains (both return False unless the condition already holds).
        Stopping at the deadline or at a drained queue with a deadline
        moves the clock up to the deadline, never back: a pump nested in
        one of this pump's callbacks may already have carried the clock
        past it.

        The dispatch loop is inlined rather than delegating to
        :meth:`step` — this is the simulator's innermost loop and the
        per-event call overhead is measurable at scale.
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        # ``inf`` stands in for "no deadline" so the loop pays one float
        # compare per event instead of a None check plus a compare.
        limit = float("inf") if deadline is None else deadline
        # ``events_run`` is flushed once on exit instead of incremented
        # per event; batch deliveries add to it from inside callbacks,
        # so the flush is additive rather than a snapshot assignment.
        try:
            while True:
                if condition is not None and condition():
                    return True
                if not queue:
                    if deadline is not None and deadline > self._now:
                        self._now = deadline
                    return condition is not None and condition()
                entry = queue[0]
                if entry[0] > limit:
                    if limit > self._now:
                        self._now = limit
                    return condition is not None and condition()
                pop(queue)
                callback = entry[2]
                self._now = entry[0]
                args = entry[3]
                entry[2] = entry[3] = None
                callback(*args)
                executed += 1
                if executed >= max_events:
                    raise RuntimeError(f"run_until exceeded {max_events} events (livelock?)")
        finally:
            self.events_run += executed

    def run_for(self, duration: float, max_events: int = 1_000_000) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.run_until(condition=None, deadline=self._now + duration, max_events=max_events)

    @property
    def pending_events(self) -> int:
        """Entries still queued."""
        return len(self._queue)
