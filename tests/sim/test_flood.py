"""The switch flood: one engine entry per flood, checked against a
reference that floods with one ``Port.transmit`` per port."""

import random

import pytest

import repro.sim.switch as switch_module
from repro.sim.engine import EventEngine
from repro.sim.node import connect, Node
from repro.sim.switch import ManagedSwitch

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
