"""The switch flood: one engine entry per flood, checked against a
reference that floods with one ``Port.transmit`` per port, between
plain recorders and between host stacks whose NIC filters differ."""

import random

import pytest

import repro.sim.switch as switch_module
from repro.nd.ra import RaDaemonConfig
from repro.net.addresses import IPv4Address, IPv4Network, IPv6Address, IPv6Network
from repro.sim.engine import EventEngine
from repro.sim.host import Host, ServerHost
from repro.sim.iface import IPV4_BROADCAST, L2Interface
from repro.sim.node import connect, Node
from repro.sim.router import Router
from repro.sim.switch import ManagedSwitch
from repro.sim.trace import PacketTrace

BROADCAST = b"\xff" * 6
# An ethertype no node handles: the frames only exercise the fabric.
ETHERTYPE = b"\x88\xb5"
# Recorders bounce frames with this ethertype back to their sender.
ECHO_ETHERTYPE = b"\x88\xb6"


def per_port_flood(engine, ports, frame, skip=None):
    """The reference flood: every port transmits its own copy."""
    for out in ports:
        if out is not skip:
            out.transmit(frame)


class _Recorder(Node):
    """A one-port node that logs every frame it receives, in order, into
    a log it shares with the other recorders, and bounces echo frames
    straight back to their sender."""

    def __init__(self, engine, name, mac, log):
        super().__init__(engine, name)
        self.mac = mac
        self.log = log
        self.add_port("eth0")

    def on_frame(self, port, frame):
        self.log.append((self.engine.now, self.name, frame))
        if frame[12:14] == ECHO_ETHERTYPE and frame[6:12] != self.mac:
            port.transmit(frame[6:12] + self.mac + ETHERTYPE + b"echo " + frame[14:])


def _mac(number):
    return bytes([2, 0, 0, 0, 1, number])


def _fabric(hosts, latencies, log=None, seed=1):
    engine = EventEngine(seed=seed)
    switch = ManagedSwitch(engine, "sw")
    recorders = []
    for number in range(hosts):
        recorder = _Recorder(engine, f"h{number}", _mac(number), [] if log is None else log)
        connect(
            engine,
            recorder.port("eth0"),
            switch.add_port(f"p{number}"),
            latency=latencies[number % len(latencies)],
        )
        recorders.append(recorder)
    return engine, switch, recorders


class TestFloodEntry:
    def test_one_flood_is_one_pending_entry(self):
        engine, switch, recorders = _fabric(10, [0.0005])
        switch.on_frame(switch.port("p0"), BROADCAST + _mac(0) + ETHERTYPE + bytes(46))
        assert engine.pending_events == 1
        engine.run_until()
        assert engine.events_run == 9
        assert [len(recorder.log) for recorder in recorders] == [0] + [1] * 9

    def test_one_entry_per_distinct_latency(self):
        engine, switch, recorders = _fabric(6, [0.0005, 0.001, 0.0])
        switch.on_frame(switch.port("p0"), BROADCAST + _mac(0) + ETHERTYPE + bytes(46))
        assert engine.pending_events == 3
        engine.run_until()
        assert engine.events_run == 5


def _script(rng, hosts, ticks, actions):
    """``actions`` timed steps over ``ticks`` distinct times, so many of
    them share a tick: frames (broadcast, multicast, known and unknown
    unicast, echo or plain), cable pulls and re-plugs."""
    script = []
    for index in range(actions):
        when = rng.randrange(ticks) * 0.0005
        kind = rng.random()
        host = rng.randrange(hosts)
        if kind < 0.08:
            script.append((when, "pull", host, None))
        elif kind < 0.16:
            script.append((when, "plug", host, None))
        else:
            dst = rng.choice(
                [BROADCAST, b"\x33\x33\x00\x00\x00\x01", b"\x33\x33\xff\x00\x00\x07"]
                + [_mac(number) for number in range(hosts)]
                + [_mac(200)]
            )
            ethertype = ECHO_ETHERTYPE if rng.random() < 0.3 else ETHERTYPE
            script.append((when, "send", host, dst + _mac(host) + ethertype + b"#%d" % index))
    return script


def _run(script, hosts, latencies, seed):
    log = []
    engine, switch, recorders = _fabric(hosts, latencies, log, seed)

    def act(kind, host, frame):
        port = recorders[host].port("eth0")
        if kind == "send":
            port.transmit(frame)
        elif kind == "pull":
            port._link.disconnect()
        else:
            port._link.reconnect()

    for when, kind, host, frame in script:
        engine.schedule(when, act, kind, host, frame)
    engine.run_until()
    ports = [port for node in [switch] + recorders for port in node.ports.values()]
    return {
        "log": log,
        "ports": [(port.name, port.tx_frames, port.rx_frames) for port in ports],
        "links": [port._link.frames_carried for port in switch.ports.values()],
        "events_run": engine.events_run,
        "switch": (switch.flooded, switch.forwarded),
    }


@pytest.mark.parametrize("seed", range(12))
def test_flood_matches_per_port_reference(seed, monkeypatch):
    rng = random.Random(seed)
    hosts = rng.randrange(3, 10)
    latencies = [rng.choice([0.0, 0.0005, 0.001]) for _ in range(hosts)]
    script = _script(rng, hosts, ticks=12, actions=80)
    shared = _run(script, hosts, latencies, seed)
    monkeypatch.setattr(switch_module, "flood", per_port_flood)
    reference = _run(script, hosts, latencies, seed)
    assert shared == reference
    # The streams really do share ticks, and floods really do happen.
    assert len(shared["log"]) > len({when for when, _, _ in shared["log"]})
    assert shared["switch"][0] > 0


# -- floods between NIC filters ------------------------------------------------

LAN_V4 = IPv4Network("10.0.0.0/24")
LAN_V6 = IPv6Network("2001:db8::/64")
EXTRA_V6 = IPv6Network("2001:db8:e::/64")
PROXIED_V6 = IPv6Network("2001:db8:9::/64")
RA_PREFIX = IPv6Network("2001:db8:1::/64")
#: Bound on every host, so unicast payloads land in an inbox.
SINK_PORT = 7


def _v4(number):
    return IPv4Address(f"10.0.0.{number + 1}")


def _v6(number):
    return IPv6Address(f"2001:db8::{number + 1:x}")


def _extra(number, which):
    return IPv6Address(f"2001:db8:e::{number + 1:x}:{which}")


def _nic_fabric(layout, latencies):
    """A switch, one router interface and host stacks whose receive
    filters differ: port 67/68 bound on some hosts, extra global
    addresses on some, proxy NDP on host 0, a trace on host 1's port and
    SLAAC from the switch's RAs on the clients."""
    engine = EventEngine(seed=1)
    switch = ManagedSwitch(engine, "sw")
    switch.enable_ra_daemon(RaDaemonConfig(prefixes=(RA_PREFIX,), interval=0.002))
    hosts = []
    for number, (client, bound, extras) in enumerate(layout):
        if client:
            host = Host(engine, f"h{number}")
            host.iface.add_ipv6(_v6(number), LAN_V6)
        else:
            host = ServerHost(
                engine, f"h{number}", ipv4=_v4(number), ipv4_network=LAN_V4,
                ipv6=_v6(number), ipv6_network=LAN_V6, on_link_everything=True,
            )
        for which in range(extras):
            host.iface.add_ipv6(_extra(number, which), EXTRA_V6)
        for port in bound:
            host.udp_open(port)
        host.udp_open(SINK_PORT)
        hosts.append(host)
    hosts[0].iface.proxy_nd_prefixes.append(PROXIED_V6)
    trace = PacketTrace(engine.clock)
    hosts[1].attach_trace(trace)
    router = Router(engine, "rtr")
    router.add_interface(
        "lan",
        ipv4=(IPv4Address("10.0.0.254"), LAN_V4),
        ipv6=(IPv6Address("2001:db8::fe"), LAN_V6),
    )
    nodes = hosts + [router]
    for number, node in enumerate(nodes):
        port = next(iter(node.ports.values()))
        connect(engine, port, switch.add_port(f"p{number}"), latency=latencies[number])
    return engine, switch, hosts, router, trace


def _nic_script(rng, hosts, slots, actions):
    """Timed steps on a quarter-tick grid, so state changes land between
    a flood and its delivery: DHCP broadcasts, RSs, NSs, unicasts, and
    toggles of a DHCP socket or an extra address."""
    script = []
    for index in range(actions):
        when = rng.randrange(slots) * 0.00025
        host = rng.randrange(hosts)
        kind = rng.choice(["dhcp", "dhcp", "rs", "ns", "ns", "v4", "v6", "bind", "addr"])
        if kind == "dhcp":
            sport, dport = rng.choice([(68, 67), (67, 68)])
            step = (sport, dport, b"#%d" % index)
        elif kind == "ns":
            other = rng.randrange(hosts)
            step = rng.choice([
                _v6(other), _extra(other, rng.randrange(3)), IPv6Address("2001:db8:9::7"),
                IPv6Address("2001:db8::dead"), IPv6Address("2001:db8::fe"),
            ])
        elif kind == "v4":
            step = (_v4(rng.randrange(hosts)), b"#%d" % index)
        elif kind == "v6":
            other = rng.randrange(hosts)
            target = rng.choice([_v6(other), _extra(other, 0), IPv6Address("2001:db8:9::5")])
            step = (target, b"#%d" % index)
        elif kind == "bind":
            step = rng.choice([67, 68])
        elif kind == "addr":
            step = _extra(host, rng.randrange(3))
        else:
            step = None
        script.append((when, kind, host, step))
    return script


_HANDLE_FRAME = L2Interface.handle_frame


def _nic_run(layout, latencies, script, monkeypatch):
    handled = []

    def spy(iface, raw):
        handled.append((iface.port.node.name, raw))
        _HANDLE_FRAME(iface, raw)

    # Ports take their sink when the interface is built, so spy first.
    monkeypatch.setattr(L2Interface, "handle_frame", spy)
    engine, switch, hosts, router, trace = _nic_fabric(layout, latencies)
    sockets = [sock for host in hosts for sock in host._udp_sockets.values()]

    def act(kind, number, step):
        host = hosts[number]
        if kind == "dhcp":
            sport, dport, payload = step
            host.send_udp(sport, IPV4_BROADCAST, dport, payload)
        elif kind == "rs":
            host.solicit_routers()
        elif kind == "ns":
            host.iface._neighbor_solicit(step)
        elif kind in ("v4", "v6"):
            host.send_udp(SINK_PORT, step[0], SINK_PORT, step[1])
        elif kind == "bind":
            if step in host._udp_sockets:
                host._udp_sockets[step].close()
            else:
                sockets.append(host.udp_open(step))
        elif step in host.iface.ipv6_addresses:
            host.iface.remove_ipv6(step)
        else:
            host.iface.add_ipv6(step, EXTRA_V6)

    for when, kind, number, step in script:
        engine.schedule(when, act, kind, number, step)
    engine.run_for(0.02)
    ifaces = [host.iface for host in hosts] + list(router.ifaces.values())
    ports = [port for node in [switch, router] + hosts for port in node.ports.values()]
    return {
        "trace": [(str(entry), entry.frame) for entry in trace.entries],
        "handled": handled,
        "ports": [(port.node.name, port.tx_frames, port.rx_frames) for port in ports],
        "links": [port._link.frames_carried for port in switch.ports.values()],
        "events_run": engine.events_run,
        "switch": (switch.flooded, switch.forwarded),
        "neighbors": [
            (list(iface.v4_neighbors.items()), list(iface.v6_neighbors.items())) for iface in ifaces
        ],
        "inboxes": [(sock.stack.name, sock.port, sock.inbox) for sock in sockets],
    }


@pytest.mark.parametrize("seed", range(8))
def test_flood_filters_match_per_port_reference(seed, monkeypatch):
    """Every NIC filter the flood's drain applies agrees with the one
    ``Port.deliver`` applies, read when the copy is delivered."""
    rng = random.Random(seed)
    hosts = rng.randrange(5, 9)
    layout = [
        (
            rng.random() < 0.3,
            [port for port in (67, 68) if rng.random() < 0.5],
            rng.randrange(3),
        )
        for _ in range(hosts)
    ]
    latencies = [rng.choice([0.0, 0.0005, 0.001]) for _ in range(hosts + 1)]
    script = _nic_script(rng, hosts, slots=40, actions=90)
    shared = _nic_run(layout, latencies, script, monkeypatch)
    monkeypatch.setattr(switch_module, "flood", per_port_flood)
    reference = _nic_run(layout, latencies, script, monkeypatch)
    assert shared == reference
    # Filters really did drop copies and keep broadcasts to bound ports.
    assert len(shared["handled"]) < sum(rx for name, _, rx in shared["ports"] if name != "sw")
    assert any(port in (67, 68) and inbox for _, port, inbox in shared["inboxes"])
    assert shared["trace"]


class TestFilterAtDelivery:
    """A flood classifies its frame once, but each receiver's filter is
    read when its copy arrives, not when the switch floods."""

    def _hosts(self, engine):
        switch = ManagedSwitch(engine, "sw")
        sender = ServerHost(engine, "s", ipv4=_v4(0), ipv4_network=LAN_V4, ipv6=_v6(0))
        receiver = ServerHost(engine, "r", ipv4=_v4(1), ipv4_network=LAN_V4, ipv6=_v6(1))
        witness = ServerHost(engine, "w", ipv4=_v4(2), ipv4_network=LAN_V4, ipv6=_v6(2))
        connect(engine, sender.port("eth0"), switch.add_port("p0"), latency=0.0)
        connect(engine, receiver.port("eth0"), switch.add_port("p1"), latency=0.001)
        connect(engine, witness.port("eth0"), switch.add_port("p2"), latency=0.001)
        return sender, receiver, witness

    def test_a_socket_bound_in_flight_gets_the_broadcast(self, engine):
        sender, receiver, witness = self._hosts(engine)
        sender.send_udp(68, IPV4_BROADCAST, 67, b"discover")
        engine.run_for(0.0005)
        sock = receiver.udp_open(67)
        engine.run_for(0.01)
        assert [payload for _, _, payload in sock.inbox] == [b"discover"]
        assert _v4(0) in receiver.iface.v4_neighbors
        # The unbound witness counted its copy and dropped it.
        assert witness.port("eth0").rx_frames == 1
        assert _v4(0) not in witness.iface.v4_neighbors

    def test_an_address_added_in_flight_answers_its_solicitation(self, engine):
        sender, receiver, witness = self._hosts(engine)
        target = IPv6Address("2001:db8::77")
        sender.iface._neighbor_solicit(target)
        engine.run_for(0.0005)
        receiver.iface.add_ipv6(target, LAN_V6)
        engine.run_for(0.01)
        assert sender.iface.v6_neighbors[target] == receiver.mac
        assert sender.iface.link_local not in witness.iface.v6_neighbors
