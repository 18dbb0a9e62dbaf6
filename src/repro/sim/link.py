"""Point-to-point links between ports, and the switch flood that puts
one frame on many of them.

A link delivers each transmitted frame to the far side after its
latency, via the event engine — in order, losslessly (the testbed is a
single switch fabric; loss behaviour is exercised explicitly by the
failure-injection tests instead).  Frames already in flight when a
cable is pulled still arrive.

Each direction of a link is a :class:`_Lane`.  A lane remembers the
engine entry that holds its pending delivery and the tick it was
opened on, so same-tick frames toward one endpoint join one delivery
(:meth:`_Lane.join`, the one copy of the same-tick logic).  Most ticks
carry exactly one frame, so the first frame is scheduled straight at
the peer's :meth:`~repro.sim.node.Port.deliver` (no batch list); a
same-tick follow-on *upgrades* the still-pending entry in place into a
one-slot :func:`_drain`.  The entry's ``(when, sequence)`` key never
changes, so dispatch order is identical to scheduling the batch up
front.

:func:`flood` is the switch's fan-out over its live ports.  Per port it
does what :meth:`~repro.sim.node.Port.transmit` does — ``tx_frames``,
the trace record and ``frames_carried`` — but it schedules one engine
entry per distinct arrival time (one per link latency, in practice)
instead of one per port.  A port whose lane
already holds a same-tick delivery joins it, exactly as
:meth:`Link.transmit` would; every other port takes the next slot of
the shared entry, and its lane records the entry and the slot so later
same-tick frames toward that port, unicast or another flood, join that
port's slot.

:func:`_drain` delivers an entry's slots in port order, each through
:meth:`~repro.sim.node.Port.deliver` or
:meth:`~repro.sim.node.Port.deliver_batch`, and credits
``events_run`` with one event per frame.  Event totals, per-port
``tx_frames``/``rx_frames``, ``frames_carried``, the trace records and
the ``(time, seq)`` dispatch order all stay what one entry per port
gives: the per-port entries a flood would schedule take consecutive
sequence numbers, so nothing else can sort between them.  What a
shared entry does change is where an engine pump may stop: a
``run_until`` condition is checked between engine entries, not between
the frames or slots of one entry, and a pump started from inside a
delivery (a DNS forwarder's upstream exchange) runs the entry's later
slots only after it returns.  Link batches have always worked this way.
"""

from __future__ import annotations

from repro.sim.engine import EventEngine

__all__ = ["Link", "flood"]


def _drain(engine, peers, frames) -> None:
    """Deliver one entry's frames, slot by slot in port order.

    ``frames[i]`` is the frame for ``peers[i]``, or the list of its
    same-tick frames.  The engine counted the entry as one event; the
    rest of the frames are credited here.
    """
    events = -1
    for peer, held in zip(peers, frames):
        if held.__class__ is list:
            events += len(held)
            peer.deliver_batch(held)
        else:
            events += 1
            peer.deliver_cb(held)
    engine.events_run += events


class _Lane:
    """One direction of a link: what its sender puts toward ``peer``.

    ``entry`` is the engine entry of the lane's latest delivery toward
    ``peer``, ``stamp`` the tick it was opened on, and ``slot`` the
    peer's index in a :func:`_drain` entry, or -1 for a lone frame
    scheduled straight at ``peer.deliver_cb``.  The engine clears the
    callback slot of an entry it has run, so ``entry[2]`` tells a
    pending delivery from a delivered one.
    """

    __slots__ = ("engine", "peer", "entry", "stamp", "slot")

    def __init__(self, engine: EventEngine) -> None:
        self.engine = engine
        self.peer = None
        self.entry = None
        self.stamp = -1.0
        self.slot = -1

    def join(self, frame: bytes) -> bool:
        """Add ``frame`` to the delivery this lane opened on the current
        tick, if it is still pending.  False means open a new one."""
        if self.stamp != self.engine._now:
            return False
        entry = self.entry
        if entry[2] is None:  # already delivered
            return False
        slot = self.slot
        if slot < 0:
            entry[2] = _drain
            entry[3] = (self.engine, [self.peer], [[entry[3][0], frame]])
            self.slot = 0
            return True
        frames = entry[3][2]
        held = frames[slot]
        if held.__class__ is list:
            held.append(frame)
        else:
            frames[slot] = [held, frame]
        return True

    def hold(self, entry, slot: int) -> None:
        """Record ``entry`` as this tick's pending delivery toward ``peer``."""
        self.entry = entry
        self.stamp = self.engine._now
        self.slot = slot


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
        self._to_a = _Lane(engine)
        self._to_b = _Lane(engine)

    def attach(self, port) -> None:
        if self._a is None:
            self._a = port
            self._to_a.peer = port
        elif self._b is None:
            self._b = port
            self._to_b.peer = port
        else:
            raise RuntimeError(f"link {self.name} already has two endpoints")
        port._link = self
        port.node.on_link_change(port)

    def transmit(self, sender, frame: bytes) -> None:
        """Called by a port; schedules delivery at the far end."""
        if not self.up:
            return
        lane = self._to_b if sender is self._a else self._to_a
        peer = lane.peer
        if peer is None:
            return  # unplugged cable
        self.frames_carried += 1
        if not lane.join(frame):
            lane.hold(self.engine.schedule(self.latency, peer.deliver_cb, frame), -1)

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


def flood(engine: EventEngine, ports, frame: bytes, skip=None) -> None:
    """Transmit ``frame`` out of every port in ``ports`` except ``skip``,
    with one engine entry per distinct arrival time (see the module
    docstring).  Every port in ``ports`` must be connected."""
    now = engine._now
    groups = {}
    for port in ports:
        if port is skip:
            continue
        port.tx_frames += 1
        trace = port.trace
        if trace is not None:
            trace.record(port.node.name, port.name, "tx", frame)
        link = port._link
        lane = link._to_b if port is link._a else link._to_a
        peer = lane.peer
        if peer is None:
            continue
        link.frames_carried += 1
        if lane.join(frame):
            continue
        when = now + link.latency
        entry = groups.get(when)
        if entry is None:
            entry = groups[when] = engine.schedule(link.latency, _drain, engine, [], [])
        _, peers, frames = entry[3]
        lane.hold(entry, len(peers))
        peers.append(peer)
        frames.append(frame)
