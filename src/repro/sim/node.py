"""Nodes and ports: the simulator's device plumbing.

A :class:`Node` owns named :class:`Port` objects; a port transmits
frames onto its link and hands received frames to its ``sink``, or to
the node's ``on_frame(port, bytes)``.  Ports can mirror traffic into a
:class:`~repro.sim.trace.PacketTrace`.

A port owned by an :class:`~repro.sim.iface.L2Interface` runs that
interface's NIC receive filter (:meth:`Port.keeps`) on every delivery
path: after ``rx_frames`` and the trace record, before anything is
called.  A frame the filter rejects stops at the port.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, Mapping, Optional, Set

from repro.sim.engine import EventEngine
from repro.sim.link import broadcast_udp_port, Link, SOLICITED_PREFIX
from repro.sim.trace import PacketTrace

__all__ = ["Port", "Node"]


class Port:
    """One network interface attachment point."""

    def __init__(self, node: "Node", name: str) -> None:
        self.node = node
        self.name = name
        self._link: Optional[Link] = None
        self.trace: Optional[PacketTrace] = None
        self.tx_frames = 0
        self.rx_frames = 0
        #: Fast delivery path: when the owning node's ``on_frame`` would
        #: only dispatch on the port to a fixed per-port handler (every
        #: :class:`~repro.sim.iface.L2Interface` owner), the handler is
        #: installed here and called directly with the frame bytes,
        #: skipping the ``on_frame`` trampoline.  ``None`` falls back to
        #: ``node.on_frame(port, frame)`` (the switch needs the port).
        self.sink: Optional[Callable[[bytes], None]] = None
        #: Bound :meth:`deliver`, taken once: the link schedules it for a
        #: lone frame and its drains call it per slot, where
        #: ``port.deliver`` would mint a fresh bound method per frame.
        self.deliver_cb: Callable[[bytes], None] = self.deliver
        #: The NIC receive filter's state (:meth:`keeps`), which an
        #: :class:`~repro.sim.iface.L2Interface` sets together with
        #: ``sink``: its live accepted-MAC set, bound-UDP-port map and
        #: proxy-NDP prefix list, held and never copied, so a delivery
        #: reads them as they are then.  ``accept`` is ``None`` on a
        #: port that keeps every frame.
        self.accept: Optional[Set[bytes]] = None
        self.udp_ports: Optional[Mapping[int, object]] = None
        self.proxy_nd: Collection[object] = ()
        #: The lane this port transmits on, set when it is cabled.
        self._lane = None

    @property
    def connected(self) -> bool:
        return self._link is not None and self._link.up

    def transmit(self, frame: bytes) -> None:
        self.tx_frames += 1
        if self.trace is not None:
            self.trace.record(self.node.name, self.name, "tx", frame)
        if self._link is not None:
            self._link.transmit(self, frame)

    def keeps(self, frame: bytes) -> bool:
        """Whether the NIC receive filter passes ``frame``.

        It keeps a frame whose destination MAC is in ``accept``, or is
        any solicited-node group while ``proxy_nd`` is non-empty (an
        interface answering NDP for addresses it does not own).  Of
        those it drops an IPv4 broadcast UDP datagram to a port
        ``udp_ports`` does not hold (``None`` keeps every such datagram):
        another attendee's DHCP exchange costs a host one header read.
        The stack would drop the datagram anyway, so all a host forgoes
        is gleaning the sender's MAC.  :func:`repro.sim.link.flood`'s
        drain applies this rule to each copy, from one classification
        of the flood's frame.
        """
        accept = self.accept
        if accept is None:
            return True
        if frame[:6] not in accept and not (
            self.proxy_nd and frame.startswith(SOLICITED_PREFIX)
        ):
            return False
        ports = self.udp_ports
        if ports is None or frame[0] != 0xFF:
            return True
        udp_port = broadcast_udp_port(frame)
        return udp_port < 0 or udp_port in ports

    def deliver(self, frame: bytes) -> None:
        """Called by the link when a frame arrives."""
        self.rx_frames += 1
        if self.trace is not None:
            self.trace.record(self.node.name, self.name, "rx", frame)
        if self.accept is not None and not self.keeps(frame):
            return
        if self.sink is not None:
            self.sink(frame)
        else:
            self.node.on_frame(self, frame)

    def deliver_batch(self, frames) -> None:
        """Deliver a same-tick batch in transmit order (one link drain).

        Equivalent to calling :meth:`deliver` per frame, hoisting the
        attribute lookups out of the per-frame loop.
        """
        self.rx_frames += len(frames)
        trace = self.trace
        keeps = None if self.accept is None else self.keeps
        sink = self.sink
        for frame in frames:
            if trace is not None:
                trace.record(self.node.name, self.name, "rx", frame)
            if keeps is not None and not keeps(frame):
                continue
            if sink is not None:
                sink(frame)
            else:
                self.node.on_frame(self, frame)


class Node:
    """Base class for every simulated device."""

    def __init__(self, engine: EventEngine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.ports: Dict[str, Port] = {}

    def add_port(self, name: str = "eth0") -> Port:
        if name in self.ports:
            raise ValueError(f"{self.name} already has port {name}")
        port = Port(self, name)
        self.ports[name] = port
        return port

    def port(self, name: str = "eth0") -> Port:
        return self.ports[name]

    def attach_trace(self, trace: PacketTrace) -> None:
        for port in self.ports.values():
            port.trace = trace

    def on_frame(self, port: Port, frame: bytes) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_link_change(self, port: Port) -> None:
        """Called when ``port`` is cabled, or its link goes down or back
        up (``port.connected`` tells which).  Nothing by default."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def connect(engine: EventEngine, a: Port, b: Port, latency: float = 0.0005) -> Link:
    """Wire two ports together with a new link."""
    link = Link(engine, latency, name=f"{a.node.name}:{a.name}--{b.node.name}:{b.name}")
    link.attach(a)
    link.attach(b)
    return link
