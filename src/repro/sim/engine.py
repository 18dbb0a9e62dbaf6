"""The discrete-event engine: a hierarchical timing wheel.

Events live in one of four tiers, chosen by how far ahead of the
cursor they land (``idx`` is the absolute tier-0 slot of an event,
``int(when * 2048)`` — slot width 2**-11 s, on the order of one link
latency):

- ``_active`` — a small heap of already-due entries: the slot being
  drained right now, plus anything scheduled *behind* the cursor
  (e.g. a delay-0 event posted from inside a callback);
- ``_wheel0`` — 256 tier-0 slots covering the aligned 125 ms block
  that contains the cursor (one slot per ``idx``);
- ``_wheel1`` — 256 tier-1 slots of 125 ms covering the aligned 32 s
  block that contains the cursor (lease renewals, RA cadences);
- ``_overflow`` — a plain heapq for everything farther out.

Alignment is the invariant that keeps the wheel exact: a wheel slot
only ever holds events from the *current* aligned block of its tier,
so the cursor enters a new block with both wheels empty and pulls the
overflow heap for exactly that block.  Slots are therefore drained in
strictly non-decreasing ``idx`` order, and each drained slot is
heapified into ``_active`` where the original ``(when, sequence)``
comparison decides the final order — byte-identical traces to the
single-heap engine's contract: ties break by insertion sequence.

Entries are mutable ``[when, sequence, callback, args]`` lists.  A
pending entry is cancelled by tombstoning in place (callback slot set
to ``None``) — O(1), no re-sift.  Dispatched and tombstoned entries
are recycled through a freelist slab (``_pool``), so the steady-state
frame-delivery path allocates zero new list objects per packet.  The
``sequence`` stamp doubles as an ABA guard: a recycled entry gets a
fresh sequence, so a canceller that remembers ``(entry, seq)`` can
tell a stale handle from a live one (see :meth:`schedule_every`).

Never hold an entry reference past its fire time: after dispatch the
list belongs to the pool and may already be a different event.

This module is the one place in the tree allowed to touch :mod:`heapq`
directly — it owns the ``(time, sequence)`` tie-break contract (RL106).
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventEngine"]

#: A queue entry: ``[when, sequence, callback, args]``; the callback
#: slot is ``None`` for tombstones.  A mutable list (not a tuple or an
#: object) so cancellation and slab recycling can patch it in place.
Entry = List[Any]

# Tier geometry.  G0 is an exact binary fraction so ``when * _INV_G0``
# is a pure exponent shift — ``int()`` of it is an exact floor, hence
# monotonic: when_a <= when_b  =>  idx_a <= idx_b, with no float fuzz.
_SLOT_BITS = 8  # 256 slots per wheel tier
_SLOTS = 1 << _SLOT_BITS
_SLOT_MASK = _SLOTS - 1
_INV_G0 = 2048.0  # 1 / G0; G0 = 2**-11 s per tier-0 slot
_G0 = 1.0 / _INV_G0


class _CoalesceGroup:
    """Bookkeeping for one ``(coalesce, interval)`` timer group."""

    __slots__ = ("members", "entry", "seq")

    def __init__(self) -> None:
        self.members: List[Callable[[], None]] = []
        self.entry: Optional[Entry] = None
        self.seq = 0


class EventEngine:
    """Deterministic event scheduler and simulated clock."""

    def __init__(self, seed: int = 2024) -> None:
        # Due-now heap: entries with idx < _cursor, ordered by (when, seq).
        self._active: List[Entry] = []
        # One list per slot; a slot holds entries of exactly one idx.
        self._wheel0: List[List[Entry]] = [[] for _ in range(_SLOTS)]
        self._wheel1: List[List[Entry]] = [[] for _ in range(_SLOTS)]
        self._bits0 = 0  # occupancy bitmap over _wheel0 slot positions
        self._bits1 = 0
        self._count0 = 0  # entries resident per tier (incl. tombstones)
        self._count1 = 0
        self._overflow: List[Entry] = []  # heapq beyond the tier-1 block
        self._cursor = 0  # next absolute tier-0 slot to collect
        self._pool: List[Entry] = []  # entry freelist (the slab)
        self._sequence = 0
        self._now = 0.0
        self.rng = random.Random(seed)
        self.events_run = 0
        # (group, interval) -> _CoalesceGroup; purged when the last
        # member cancels (see _schedule_coalesced).
        self._coalesce_groups: Dict[Tuple[str, float], _CoalesceGroup] = {}

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

        Returns the queue entry; setting its callback slot (index 2) to
        ``None`` cancels it in place — but only while it is still
        pending.  Entries are recycled after they fire, so a canceller
        that may outlive the event must remember ``entry[1]`` at
        schedule time and only tombstone while it still matches.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past: {delay}")
        when = self._now + delay
        self._sequence = seq = self._sequence + 1
        pool = self._pool
        if pool:
            entry = pool.pop()
            entry[0] = when
            entry[1] = seq
            entry[2] = callback
            entry[3] = args
        else:
            entry = [when, seq, callback, args]
        idx = int(when * _INV_G0)
        cursor = self._cursor
        if idx < cursor:
            heapq.heappush(self._active, entry)
        elif idx >> _SLOT_BITS == cursor >> _SLOT_BITS:
            pos = idx & _SLOT_MASK
            self._wheel0[pos].append(entry)
            self._bits0 |= 1 << pos
            self._count0 += 1
        elif idx >> (2 * _SLOT_BITS) == cursor >> (2 * _SLOT_BITS):
            pos = (idx >> _SLOT_BITS) & _SLOT_MASK
            self._wheel1[pos].append(entry)
            self._bits1 |= 1 << pos
            self._count1 += 1
        else:
            heapq.heappush(self._overflow, entry)
        return entry

    def schedule_every(
        self,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        immediate: bool = False,
        coalesce: Optional[str] = None,
    ) -> Callable[[], None]:
        """Run ``callback`` every ``interval`` seconds.  Returns a canceller.

        The first tick fires one interval from now; pass
        ``immediate=True`` for an extra tick at the current time (the
        seed engine always did this, surprising every consumer that
        wanted a plain cadence).

        ``coalesce`` names a batching group: periodic tasks sharing the
        same ``(coalesce, interval)`` ride one wheel timer, so a fleet
        of identical RA/lease tickers costs one event per period instead
        of one per member.  Members joining an existing group align to
        its phase (their first tick can come sooner than one full
        interval); when the last member cancels, the group's pending
        tick is tombstoned and the group record is purged, so a later
        joiner starts a fresh group with a fresh phase.  Jitter is
        incompatible with coalescing and raises.

        Cancellation tombstones the pending entry in place, so a
        cancelled timer costs nothing.  The entry's sequence stamp
        guards against recycled entries: cancelling after the timer's
        final tick is a no-op rather than a stab at whatever event now
        owns the slab slot.
        """
        if coalesce is not None:
            if jitter:
                raise ValueError("jitter cannot be combined with coalesce")
            return self._schedule_coalesced(interval, callback, immediate, coalesce)
        pending: Optional[Tuple[Entry, int]] = None
        cancelled = False

        def cancel() -> None:
            nonlocal cancelled
            cancelled = True
            if pending is not None:
                entry, seq = pending
                if entry[1] == seq:
                    entry[2] = None

        def tick() -> None:
            nonlocal pending
            if cancelled:
                return
            callback()
            if cancelled:  # callback itself may cancel the timer
                return
            delay = interval
            if jitter:
                delay += self.rng.uniform(-jitter, jitter)
            entry = self.schedule(max(delay, 1e-6), tick)
            pending = (entry, entry[1])

        if immediate:
            entry = self.schedule(0.0, tick)
        else:
            delay = interval
            if jitter:
                delay += self.rng.uniform(-jitter, jitter)
            entry = self.schedule(max(delay, 1e-6), tick)
        pending = (entry, entry[1])
        return cancel

    def _schedule_coalesced(
        self, interval: float, callback: Callable[[], None], immediate: bool, group: str
    ) -> Callable[[], None]:
        key = (group, interval)
        rec: Optional[_CoalesceGroup] = self._coalesce_groups.get(key)
        if rec is None:
            rec = self._coalesce_groups[key] = _CoalesceGroup()
            members = rec.members

            def tick() -> None:
                for member in list(members):
                    member()
                if members:
                    entry = self.schedule(max(interval, 1e-6), tick)
                    rec.entry = entry
                    rec.seq = entry[1]
                else:
                    self._coalesce_groups.pop(key, None)

            entry = self.schedule(max(interval, 1e-6), tick)
            rec.entry = entry
            rec.seq = entry[1]
        else:
            members = rec.members
        members.append(callback)
        if immediate:
            self.schedule(0.0, lambda: callback() if callback in members else None)

        def cancel() -> None:
            try:
                members.remove(callback)
            except ValueError:
                return
            if not members:
                # Last member out: tombstone the pending group tick (the
                # seq guard makes this a no-op if it already fired) and
                # purge the group record — nothing left to leak.
                entry = rec.entry
                if entry is not None and entry[1] == rec.seq:
                    entry[2] = None
                self._coalesce_groups.pop(key, None)

        return cancel

    # -- wheel internals -----------------------------------------------------

    def _refill(self) -> bool:
        """Move the earliest pending wheel/overflow slot into ``_active``.

        Returns True when ``_active`` gained at least one live entry,
        False when nothing is pending anywhere.  The cursor jumps to the
        next occupied slot, which may be far ahead of the clock — events
        scheduled afterwards at earlier indices take the ``_active``
        heap directly.  That is deliberate: the wheels earn their keep
        as a parking lot for coarse timers (leases, RA cadences) that
        would otherwise deepen the heap, while burst traffic rides a
        shallow C-implemented heap, which profiling shows beats a pure
        Python per-slot wheel walk at link-latency granularity.
        Tombstones encountered along the way are recycled, never moved.
        """
        active = self._active
        pool = self._pool
        while True:
            cursor = self._cursor
            if self._count0:
                masked = self._bits0 >> (cursor & _SLOT_MASK)
                if masked:
                    offset = (masked & -masked).bit_length() - 1
                    pos = (cursor & _SLOT_MASK) + offset
                    block = cursor & ~_SLOT_MASK
                    slot = self._wheel0[pos]
                    self._bits0 &= ~(1 << pos)
                    self._count0 -= len(slot)
                    self._cursor = block + pos + 1
                    live = False
                    for entry in slot:
                        if entry[2] is None:
                            entry[3] = None
                            pool.append(entry)
                        else:
                            active.append(entry)
                            live = True
                    slot.clear()
                    if live:
                        heapq.heapify(active)
                        return True
                    continue
                self._count0 = 0  # unreachable; keeps the invariant honest
            if self._count1:
                # Inclusive of the cursor's own tier-1 slot: when a
                # tier-0 block drains through its last slot, the cursor
                # lands at the start of the next block, whose tier-1
                # slot has not been cascaded yet.
                pos1 = (cursor >> _SLOT_BITS) & _SLOT_MASK
                masked = self._bits1 >> pos1
                if masked:
                    offset = (masked & -masked).bit_length() - 1
                    pos = pos1 + offset
                    block1 = cursor & ~((1 << (2 * _SLOT_BITS)) - 1)
                    self._cursor = cursor = block1 + (pos << _SLOT_BITS)
                    slot = self._wheel1[pos]
                    self._bits1 &= ~(1 << pos)
                    self._count1 -= len(slot)
                    # Cascade: every entry here has idx >> 8 == cursor >> 8,
                    # so each lands in the fresh tier-0 block.
                    for entry in slot:
                        if entry[2] is None:
                            entry[3] = None
                            pool.append(entry)
                        else:
                            p0 = int(entry[0] * _INV_G0) & _SLOT_MASK
                            self._wheel0[p0].append(entry)
                            self._bits0 |= 1 << p0
                            self._count0 += 1
                    slot.clear()
                    continue
                self._count1 = 0  # unreachable; keeps the invariant honest
            overflow = self._overflow
            if overflow:
                head = overflow[0]
                if head[2] is None:
                    heapq.heappop(overflow)
                    head[3] = None
                    pool.append(head)
                    continue
                # Jump to the head's tier-0 block and pull every overflow
                # entry in the same tier-1 block into the wheels.
                idx = int(head[0] * _INV_G0)
                self._cursor = cursor = (idx >> _SLOT_BITS) << _SLOT_BITS
                block1_shift = 2 * _SLOT_BITS
                target = idx >> block1_shift
                while overflow and int(overflow[0][0] * _INV_G0) >> block1_shift == target:
                    entry = heapq.heappop(overflow)
                    if entry[2] is None:
                        entry[3] = None
                        pool.append(entry)
                        continue
                    eidx = int(entry[0] * _INV_G0)
                    if eidx >> _SLOT_BITS == cursor >> _SLOT_BITS:
                        pos = eidx & _SLOT_MASK
                        self._wheel0[pos].append(entry)
                        self._bits0 |= 1 << pos
                        self._count0 += 1
                    else:
                        pos = (eidx >> _SLOT_BITS) & _SLOT_MASK
                        self._wheel1[pos].append(entry)
                        self._bits1 |= 1 << pos
                        self._count1 += 1
                continue
            return bool(active)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Run the next event.  Returns False when nothing is pending.

        Tombstoned (cancelled) entries are recycled without counting
        toward ``events_run``.
        """
        active = self._active
        pool = self._pool
        while True:
            while active and active[0][2] is None:
                entry = heapq.heappop(active)
                entry[3] = None
                pool.append(entry)
            if not active and not self._refill():
                return False
            if active[0][2] is None:
                continue
            entry = heapq.heappop(active)
            self._now = entry[0]
            self.events_run += 1
            callback = entry[2]
            args = entry[3]
            entry[2] = None
            entry[3] = None
            pool.append(entry)
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

        The dispatch loop is inlined rather than delegating to
        :meth:`step` — this is the simulator's innermost loop and the
        per-event call overhead is measurable at scale.
        """
        active = self._active
        pool = self._pool
        pop = heapq.heappop
        refill = self._refill
        executed = 0
        # ``float('inf')`` stands in for "no deadline" so the loop pays
        # one float compare per event instead of a None check plus a
        # compare; the deadline-return branch is unreachable when the
        # sentinel is in play, so ``_now`` can never be set to inf.
        if deadline is None:
            deadline = float("inf")
        # ``events_run`` is flushed once on exit instead of incremented
        # per event; batch deliveries add to it from inside callbacks,
        # so the flush is additive rather than a snapshot assignment.
        try:
            while True:
                if condition is not None and condition():
                    return True
                if not active:
                    if refill():
                        continue
                    return condition is not None and condition()
                entry = active[0]
                if entry[0] > deadline:
                    self._now = deadline
                    return condition is not None and condition()
                pop(active)
                callback = entry[2]
                if callback is None:  # tombstone: recycle, don't dispatch
                    entry[3] = None
                    pool.append(entry)
                    continue
                self._now = entry[0]
                args = entry[3]
                entry[2] = None
                entry[3] = None
                pool.append(entry)
                callback(*args)
                executed += 1
                if executed >= max_events:
                    raise RuntimeError(f"run_until exceeded {max_events} events (livelock?)")
        finally:
            self.events_run += executed

    def run_for(self, duration: float, max_events: int = 1_000_000) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.run_until(condition=None, deadline=self._now + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 1_000_000) -> None:
        """Drain every queued event (periodic tasks make this unbounded —
        use :meth:`run_for` when RA daemons or lease timers are active)."""
        for _ in range(max_events):
            if not self.step():
                return
        raise RuntimeError(f"run_until_idle exceeded {max_events} events")

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) entries still queued.  O(n) — it walks
        every tier — but it is only used by tests and diagnostics."""
        total = sum(1 for entry in self._active if entry[2] is not None)
        total += sum(1 for entry in self._overflow if entry[2] is not None)
        for wheel in (self._wheel0, self._wheel1):
            for slot in wheel:
                total += sum(1 for entry in slot if entry[2] is not None)
        return total
