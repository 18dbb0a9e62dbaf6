"""Property tests for the event engine's ``(time, sequence)`` contract.

The engine must dispatch exactly as a plain single-heapq scheduler
does: identical callback order, identical clock readings, ties broken
by insertion sequence.  :class:`_ReferenceEngine` below *is* that
scheduler, stripped to the scheduling semantics; randomized seeded
workloads drive both implementations through the same operation stream
and the observation logs must match exactly.

Also covers periodic timers (each timer on its own phase) and the
link's same-tick entry-upgrade batching.
"""

from __future__ import annotations

import heapq
import random

from repro.sim.engine import EventEngine
from repro.sim.node import connect, Node


class _ReferenceEngine:
    """The plain scheduler: one heapq, ``(when, seq)`` entries.

    Implements just enough of :class:`EventEngine`'s surface for the
    workload driver: ``schedule``, ``now`` and ``run_until``.
    """

    def __init__(self) -> None:
        self._queue = []
        self._sequence = 0
        self._now = 0.0
        self.events_run = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(delay)
        self._sequence += 1
        entry = [self._now + delay, self._sequence, callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def run_until(self, condition=None, deadline=None, max_events=1_000_000):
        executed = 0
        while True:
            if condition is not None and condition():
                return True
            if not self._queue:
                return condition is not None and condition()
            entry = self._queue[0]
            if deadline is not None and entry[0] > deadline:
                self._now = deadline
                return condition is not None and condition()
            heapq.heappop(self._queue)
            self._now = entry[0]
            self.events_run += 1
            entry[2](*entry[3])
            executed += 1
            if executed >= max_events:
                raise RuntimeError("runaway")


# Delay scales from same-tick (0) through link latency to protocol
# timers (seconds) and far-future expiries (minutes), so ties, nested
# delay-0 events and long gaps all occur.
_DELAY_SCALES = (0.0, 1e-4, 3e-3, 0.08, 0.4, 7.0, 45.0, 900.0)


def _run_workload(engine, seed: int):
    """Drive ``engine`` through a seeded random schedule stream.

    Returns the observation log: ``(tag, clock)`` per callback firing.
    The RNG is re-seeded per engine so both implementations see an
    identical operation stream.
    """
    rng = random.Random(seed)
    log = []
    counter = [0]

    def fire(tag):
        log.append((tag, engine.now))
        roll = rng.random()
        if roll < 0.25:
            # Schedule follow-up work from inside a callback, often
            # at the current time.
            delay = rng.choice(_DELAY_SCALES) * rng.random()
            _schedule(delay, nested=True)

    def _schedule(delay, nested=False):
        counter[0] += 1
        tag = f"{'n' if nested else 't'}{counter[0]}"
        engine.schedule(delay, fire, tag)

    for _ in range(120):
        _schedule(rng.choice(_DELAY_SCALES) * rng.random())
    # Interleave execution with fresh scheduling, so later inserts land
    # among entries that have waited.
    engine.run_until(deadline=engine.now + 0.05)
    for _ in range(60):
        _schedule(rng.choice(_DELAY_SCALES) * rng.random())
    engine.run_until(deadline=engine.now + 40.0)
    for _ in range(40):
        _schedule(rng.choice(_DELAY_SCALES) * rng.random())
    engine.run_until()
    return log


class TestWheelMatchesReferenceHeap:
    def test_randomized_workloads_match_reference(self):
        for seed in range(20):
            wheel_log = _run_workload(EventEngine(), seed)
            reference_log = _run_workload(_ReferenceEngine(), seed)
            assert wheel_log == reference_log, f"diverged at seed {seed}"
            assert wheel_log, "workload should execute events"

    def test_same_tick_ties_break_by_insertion_across_tiers(self):
        # Entries that *end up* due together must still fire in
        # insertion order, even when one was scheduled from a callback.
        engine = EventEngine()
        order = []
        engine.schedule(0.5, order.append, "a")
        engine.schedule(0.2, lambda: engine.schedule(0.3, order.append, "c"))
        engine.schedule(0.5, order.append, "b")
        engine.run_until()
        assert order == ["a", "b", "c"]

    def test_schedule_every_matches_reference_clocks(self):
        # schedule_every is sugar over schedule(); its ticks must land
        # on the same clock readings as hand-rolled rescheduling: a
        # first tick now, and a chain that re-arms now + interval.
        engine = EventEngine()
        ticks = []
        engine.schedule_every(0.3, lambda: ticks.append(engine.now))
        engine.run_for(2.0)
        reference = _ReferenceEngine()
        expected = []

        def tick():
            expected.append(reference.now)
            reference.schedule(0.3, tick)

        reference.schedule(0.3, tick)
        reference.schedule(0.0, lambda: expected.append(reference.now))
        reference.run_until(deadline=2.0)
        assert ticks == expected
        assert len(ticks) == 7  # t=0 and six periods


class TestCoalesceGroupLifecycle:
    """Periodic timers of one interval: each keeps its own entry and phase."""

    def test_joiner_ticks_at_once_then_on_the_group_phase(self):
        # A second timer of the same interval keeps its own phase: it
        # ticks when it joins and one full interval later.
        engine = EventEngine()
        hits = []
        engine.schedule_every(1.0, lambda: hits.append(("a", engine.now)))
        engine.run_for(0.4)
        engine.schedule_every(1.0, lambda: hits.append(("b", engine.now)))
        engine.run_for(1.0)
        assert hits == [("a", 0.0), ("b", 0.4), ("a", 1.0), ("b", 1.4)]


class _CaptureNode(Node):
    def __init__(self, engine, name):
        super().__init__(engine, name)
        self.seen = []

    def on_frame(self, port, frame):
        self.seen.append((self.engine.now, frame))


class TestBatchedFrameDelivery:
    def _pair(self):
        engine = EventEngine()
        a = _CaptureNode(engine, "a")
        b = _CaptureNode(engine, "b")
        link = connect(engine, a.add_port(), b.add_port(), latency=0.0005)
        return engine, a, b, link

    def test_same_tick_frames_coalesce_into_one_entry(self):
        engine, a, b, link = self._pair()
        port_a = a.port()
        for i in range(5):
            port_a.transmit(b"frame-%d" % i)
        # One pending engine entry carries all five frames (the first
        # schedule was upgraded in place into a batch drain).
        assert engine.pending_events == 1
        engine.run_until()
        assert [f for (_, f) in b.seen] == [b"frame-%d" % i for i in range(5)]
        assert len({t for (t, _) in b.seen}) == 1  # one delivery tick
        assert b.port().rx_frames == 5

    def test_events_run_counts_one_event_per_frame(self):
        # The trace/analysis layer reads events_run; batching must not
        # change the totals vs one-event-per-frame delivery.
        engine, a, b, link = self._pair()
        for i in range(4):
            a.port().transmit(b"x%d" % i)
        engine.run_until()
        batched_total = engine.events_run
        engine2, a2, b2, _ = self._pair()
        for i in range(4):
            a2.port().transmit(b"x%d" % i)
            engine2.run_until()  # drain between sends: no batching
        assert batched_total == engine2.events_run == 4

    def test_interleaved_directions_keep_order_and_batches(self):
        engine, a, b, link = self._pair()
        a.port().transmit(b"a->b 1")
        b.port().transmit(b"b->a 1")
        a.port().transmit(b"a->b 2")
        engine.run_until()
        assert [f for (_, f) in b.seen] == [b"a->b 1", b"a->b 2"]
        assert [f for (_, f) in a.seen] == [b"b->a 1"]

    def test_later_tick_opens_a_fresh_batch(self):
        engine, a, b, link = self._pair()
        a.port().transmit(b"tick0")
        engine.run_for(0.01)
        a.port().transmit(b"tick1")
        engine.run_until()
        times = [t for (t, _) in b.seen]
        assert len(times) == 2 and times[0] != times[1]

    def test_deliver_cb_is_identity_stable(self):
        engine, a, b, link = self._pair()
        port = a.port()
        assert port.deliver_cb is port.deliver_cb
        # whereas a fresh bound method is minted per attribute access
        assert port.deliver is not port.deliver

    def test_sink_bypasses_on_frame_for_batches(self):
        engine, a, b, link = self._pair()
        sunk = []
        b.port().sink = sunk.append
        a.port().transmit(b"one")
        a.port().transmit(b"two")
        engine.run_until()
        assert sunk == [b"one", b"two"]
        assert b.seen == []
