"""Point-to-point links between ports.

A link delivers each transmitted frame to the far side after its
latency, via the event engine — in order, losslessly (the testbed is a
single switch fabric; loss behaviour is exercised explicitly by the
failure-injection tests instead).

Same-tick frames toward one endpoint coalesce into a single scheduled
drain.  Most ticks carry exactly one frame, so the first frame is
scheduled directly (no batch list); a same-tick follow-on *upgrades*
the still-pending engine entry in place — swapping its callback from
the single-frame deliverer to the batch drain and moving both frames
into a scratch list leased from the engine's slab pool.  The entry's
``(when, sequence)`` key never changes, so dispatch order is identical
to scheduling the batch up front.  The drain hands the whole batch to
:meth:`~repro.sim.node.Port.deliver_batch` and credits
``events_run`` with one event per frame, so event totals — and the
per-frame rx order the trace records — stay identical to the
one-event-per-frame engine.
"""

from __future__ import annotations

from repro.sim.engine import EventEngine

__all__ = ["Link"]


class Link:
    """A full-duplex cable between exactly two ports."""

    def __init__(self, engine: EventEngine, latency: float = 0.0005, name: str = "link") -> None:
        self.engine = engine
        self.latency = latency
        self.name = name
        self._a = None
        self._b = None
        self.frames_carried = 0
        self.up = True
        # Open same-tick delivery per direction (toward _a / toward _b):
        # the pending engine entry, its sequence stamp (ABA guard for
        # recycled entries), and the tick it was opened on.  The bound
        # callbacks are cached both to skip a per-frame bound-method
        # allocation and because entry upgrade compares them with ``is``.
        self._ent_a = None
        self._ent_b = None
        self._seq_a = -1
        self._seq_b = -1
        self._stamp_a = -1.0
        self._stamp_b = -1.0
        self._drain_cb = self._drain

    def attach(self, port) -> None:
        if self._a is None:
            self._a = port
        elif self._b is None:
            self._b = port
        else:
            raise RuntimeError(f"link {self.name} already has two endpoints")
        port._link = self
        port.node.on_link_change(port)

    def transmit(self, sender, frame: bytes) -> None:
        """Called by a port; schedules delivery at the far end."""
        if not self.up:
            return
        engine = self.engine
        if sender is self._a:
            peer = self._b
            if peer is None:
                return  # unplugged cable
            self.frames_carried += 1
            if self._stamp_b == engine._now:
                ent = self._ent_b
                if ent is not None and ent[1] == self._seq_b:
                    # Entry still pending this tick.  A fired-but-not-yet
                    # reused entry has callback None (falls through to a
                    # fresh open); a reused one fails the seq guard.
                    cb = ent[2]
                    if cb is self._drain_cb:
                        ent[3][1].append(frame)
                        return
                    if cb is peer.deliver_cb:
                        pool = engine.list_pool
                        batch = pool.pop() if pool else []
                        batch.append(ent[3][0])
                        batch.append(frame)
                        ent[2] = self._drain_cb
                        ent[3] = (peer, batch)
                        return
            ent = engine.schedule(self.latency, peer.deliver_cb, frame)
            self._ent_b = ent
            self._seq_b = ent[1]
            self._stamp_b = engine._now
        else:
            peer = self._a
            if peer is None:
                return
            self.frames_carried += 1
            if self._stamp_a == engine._now:
                ent = self._ent_a
                if ent is not None and ent[1] == self._seq_a:
                    cb = ent[2]
                    if cb is self._drain_cb:
                        ent[3][1].append(frame)
                        return
                    if cb is peer.deliver_cb:
                        pool = engine.list_pool
                        batch = pool.pop() if pool else []
                        batch.append(ent[3][0])
                        batch.append(frame)
                        ent[2] = self._drain_cb
                        ent[3] = (peer, batch)
                        return
            ent = engine.schedule(self.latency, peer.deliver_cb, frame)
            self._ent_a = ent
            self._seq_a = ent[1]
            self._stamp_a = engine._now

    def _drain(self, peer, batch) -> None:
        """Deliver one direction's multi-frame batch as a single event."""
        engine = self.engine
        engine.events_run += len(batch) - 1
        peer.deliver_batch(batch)
        batch.clear()
        engine.list_pool.append(batch)

    def disconnect(self) -> None:
        """Administratively down the link (cable pull)."""
        self.up = False
        self._notify()

    def reconnect(self) -> None:
        self.up = True
        self._notify()

    def _notify(self) -> None:
        """Tell the nodes at both ends that the link went up or down."""
        for port in (self._a, self._b):
            if port is not None:
                port.node.on_link_change(port)
