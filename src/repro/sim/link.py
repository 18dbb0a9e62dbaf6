"""Point-to-point links between ports, and the switch flood that puts
one frame on many of them.

A link delivers each transmitted frame to the far side after its
latency, via the event engine — in order, losslessly (the testbed is a
single switch fabric; loss behaviour is exercised explicitly by the
failure-injection tests instead).  Frames already in flight when a
cable is pulled still arrive.

Each direction of a link is a :class:`_Lane`, and each port holds the
lane it transmits on.  A lane remembers the engine entry that holds its
pending delivery and the tick it was opened on, so same-tick frames
toward one endpoint join one delivery (:meth:`_Lane.join`, the one copy
of the same-tick logic).  Most ticks carry exactly one frame, so the
first frame is scheduled straight at the peer's
:meth:`~repro.sim.node.Port.deliver` (no batch list); a same-tick
follow-on *upgrades* the still-pending entry in place into a one-slot
:func:`_drain`.  The entry's ``(when, sequence)`` key never
changes, so dispatch order is identical to scheduling the batch up
front.

:func:`flood` is the switch's fan-out over its live ports.  Per port it
does what :meth:`~repro.sim.node.Port.transmit` does — ``tx_frames``,
the trace record and ``frames_carried`` — but it schedules one engine
entry per distinct arrival time (one per link latency, in practice)
instead of one per port.  A port whose lane
already holds a same-tick delivery joins it, exactly as
:meth:`Link.transmit` would; every other port takes the next slot of
the shared entry, and its lane records the entry, the tick and the
slot (written inline, with one entry lookup per change of latency) so
later same-tick frames toward that port, unicast or another flood, join
that port's slot.

The flood classifies its frame once for every receiver's NIC filter
(:meth:`~repro.sim.node.Port.keeps`): its destination MAC, whether that
is a solicited-node group, and for an IPv4 broadcast UDP datagram its
destination port (:func:`broadcast_udp_port`).  :func:`_drain` delivers
an entry's slots in port order and reads each peer's filter as it gets
to that peer's slot, so a socket bound or an address added while the
frame is in flight counts.  A copy the filter rejects adds to the
port's ``rx_frames`` and stops there, with no call; a kept copy goes
straight to the port's ``sink``.  A traced port, a port without a
filter and a slot that same-tick frames joined go through
:meth:`~repro.sim.node.Port.deliver` or
:meth:`~repro.sim.node.Port.deliver_batch`, which run the same filter.
The drain credits ``events_run`` with one event per frame.  Event
totals, per-port ``tx_frames``/``rx_frames``, ``frames_carried``, the
trace records and the ``(time, seq)`` dispatch order all stay what one
entry per port gives: the per-port entries a flood would schedule take
consecutive sequence numbers, so nothing else can sort between them.
What a shared entry does change is where an engine pump may stop: a
``run_until`` condition is checked between engine entries, not between
the frames or slots of one entry, and a pump started from inside a
delivery (a DNS forwarder's upstream exchange) runs the entry's later
slots only after it returns.  Link batches have always worked this way.
"""

from __future__ import annotations

from repro.sim.engine import EventEngine

__all__ = ["Link", "flood", "broadcast_udp_port", "SOLICITED_PREFIX"]

#: 33:33:ff, the first three bytes of every solicited-node group MAC.
SOLICITED_PREFIX = b"\x33\x33\xff"
_ETHERTYPE_IPV4_WIRE = b"\x08\x00"
_IPPROTO_UDP_WIRE = b"\x11"


def broadcast_udp_port(frame: bytes) -> int:
    """The UDP destination port of an IPv4 datagram in a frame whose
    destination MAC starts with 0xff (broadcast), read off the raw
    header past the IHL-sized IP header; -1 for any other frame."""
    if (
        frame[:1] != b"\xff"
        or frame[12:14] != _ETHERTYPE_IPV4_WIRE
        or frame[23:24] != _IPPROTO_UDP_WIRE
    ):
        return -1
    start = 16 + ((frame[14] & 0x0F) << 2)
    return int.from_bytes(frame[start : start + 2], "big")


def _drain(engine, peers, frames, dst, solicited, udp_port) -> None:
    """Deliver one entry's frames, slot by slot in port order.

    ``frames[i]`` is the frame for ``peers[i]``, or the list of its
    same-tick frames, which goes to
    :meth:`~repro.sim.node.Port.deliver_batch`.  A lone frame is the
    flood's, classified once by :func:`flood`: its destination MAC
    ``dst``, whether that is a solicited-node group, and its broadcast
    UDP port (-1 for none).  Each peer's NIC filter is read here, as its
    slot is delivered, by the rule of :meth:`~repro.sim.node.Port.keeps`:
    a rejected copy counts in ``rx_frames`` and stops, a kept one goes to
    the peer's ``sink``.  A peer without a filter, or with a trace, takes
    :meth:`~repro.sim.node.Port.deliver`.  The engine counted the entry
    as one event; the rest of the frames are credited here.
    """
    events = len(frames) - 1
    for peer, held in zip(peers, frames):
        if held.__class__ is list:
            events += len(held) - 1
            peer.deliver_batch(held)
            continue
        accept = peer.accept
        if accept is None or peer.trace is not None:
            peer.deliver_cb(held)
            continue
        peer.rx_frames += 1
        if (dst in accept or (solicited and peer.proxy_nd)) and (
            udp_port < 0 or peer.udp_ports is None or udp_port in peer.udp_ports
        ):
            peer.sink(held)
    engine.events_run += events


class _Lane:
    """One direction of a link: what its sender puts toward ``peer``.

    ``entry`` is the engine entry of the lane's latest delivery toward
    ``peer``, ``stamp`` the tick it was opened on, and ``slot`` the
    peer's index in a :func:`_drain` entry, or -1 for a lone frame
    scheduled straight at ``peer.deliver_cb``.  The senders
    (:meth:`Link.transmit` and :func:`flood`) write all three when they
    open a delivery.  The engine clears the callback slot of an entry it
    has run, so ``entry[2]`` tells a pending delivery from a delivered
    one.
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
        tick (the caller has checked ``stamp``), if it is still pending.
        False means open a new one."""
        entry = self.entry
        if entry[2] is None:  # already delivered
            return False
        slot = self.slot
        if slot < 0:
            entry[2] = _drain
            entry[3] = (self.engine, [self.peer], [[entry[3][0], frame]], None, False, -1)
            self.slot = 0
            return True
        frames = entry[3][2]
        held = frames[slot]
        if held.__class__ is list:
            held.append(frame)
        else:
            frames[slot] = [held, frame]
        return True


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
            port._lane = self._to_b
        elif self._b is None:
            self._b = port
            self._to_b.peer = port
            port._lane = self._to_a
        else:
            raise RuntimeError(f"link {self.name} already has two endpoints")
        port._link = self
        port.node.on_link_change(port)

    def transmit(self, sender, frame: bytes) -> None:
        """Called by a port; schedules delivery at the far end."""
        if not self.up:
            return
        lane = sender._lane
        peer = lane.peer
        if peer is None:
            return  # unplugged cable
        self.frames_carried += 1
        engine = self.engine
        if lane.stamp == engine._now and lane.join(frame):
            return
        lane.entry = engine.schedule(self.latency, peer.deliver_cb, frame)
        lane.stamp = engine._now
        lane.slot = -1

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
    docstring).  Every port in ``ports`` must be connected.

    The frame is classified once, here, for every receiver's NIC filter;
    :func:`_drain` reads each filter when it delivers."""
    now = engine._now
    dst = frame[:6]
    solicited = frame.startswith(SOLICITED_PREFIX)
    udp_port = broadcast_udp_port(frame)
    groups = {}
    latency = None
    for port in ports:
        if port is skip:
            continue
        port.tx_frames += 1
        if port.trace is not None:
            port.trace.record(port.node.name, port.name, "tx", frame)
        lane = port._lane
        peer = lane.peer
        if peer is None:
            continue
        link = port._link
        link.frames_carried += 1
        if lane.stamp == now and lane.join(frame):
            continue
        if link.latency != latency:
            # One entry per arrival time; consecutive ports share a
            # latency, so the lookup runs once per change.
            latency = link.latency
            entry = groups.get(now + latency)
            if entry is None:
                entry = groups[now + latency] = engine.schedule(
                    latency, _drain, engine, [], [], dst, solicited, udp_port
                )
            _, peers, frames, _, _, _ = entry[3]
        lane.entry = entry
        lane.stamp = now
        lane.slot = len(peers)
        peers.append(peer)
        frames.append(frame)
