"""Per-layer self time and counters for the benchmark's traced pass.

The tracer instruments the program from outside: it replaces each
layer's public entry points with a wrapper that records a span, and it
never edits the program's source.  A span's *self time* is its duration
minus the durations of the spans it directly contains, so the self
times of all layers plus the benchmark's own time add up to the wall
time of the traced region.

Entry points are named ``"module:Qualified.name"``.  Methods are
patched on their class (``classmethod``/``staticmethod`` descriptors
are unwrapped and re-wrapped), and a module-level function is replaced
by identity in every loaded ``repro.*`` module namespace, which also
catches ``from x import f`` copies.  The wrappers must be installed
before any testbed is built: ``Port.deliver_cb`` and ``Port.sink`` hold
bound methods taken at construction.

An entry point or counter attribute that no longer exists is recorded
in :attr:`Patcher.missing` instead of raising, so a refactor that
renames one shows up in the report rather than breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, entry points).  The order is the report order.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("engine", (
        "repro.sim.engine:EventEngine.run_until",
        "repro.sim.engine:EventEngine.step",
        "repro.sim.engine:EventEngine.schedule",
        "repro.sim.engine:EventEngine.schedule_every",
    )),
    ("l2", (
        "repro.sim.link:Link.transmit",
        "repro.sim.node:Port.transmit",
        "repro.sim.node:Port.deliver",
        "repro.sim.node:Port.deliver_batch",
        "repro.sim.switch:ManagedSwitch.on_frame",
    )),
    ("stack", (
        "repro.sim.iface:L2Interface.handle_frame",
        "repro.sim.iface:L2Interface.send_ipv4",
        "repro.sim.iface:L2Interface.send_ipv6",
        "repro.sim.stack:HostStack.send_udp",
        "repro.sim.stack:HostStack.send_ipv4_packet",
        "repro.sim.stack:HostStack.send_ipv6_packet",
        "repro.sim.gateway5g:MobileGateway5G.on_frame",
        "repro.sim.router:Router.on_frame",
    )),
    ("codec", (
        "repro.net.lazy:decode_ipv4_cached",
        "repro.net.lazy:decode_ipv6_cached",
        "repro.net.icmpv6:decode_icmpv6",
        "repro.net.icmpv6:encode_icmpv6",
        "repro.net.ipv4:IPv4Packet.encode",
        "repro.net.ipv6:IPv6Packet.encode",
        "repro.net.udp:UdpDatagram.encode",
        "repro.net.udp:UdpDatagram.decode",
        "repro.net.tcp:TcpSegment.encode",
        "repro.net.tcp:TcpSegment.decode",
        "repro.net.checksum:internet_checksum",
    )),
    ("control", (
        "repro.dhcp.server:DhcpServer.handle_message",
        "repro.dhcp.client:DhcpClient.run_exchange",
        "repro.dhcp.message:DhcpMessage.encode",
        "repro.dhcp.message:DhcpMessage.decode",
        "repro.nd.slaac:SlaacState.process_ra",
        "repro.nd.ra:RaDaemon.build_ra",
        "repro.nd.addrsel:order_destinations",
    )),
    ("dns_wire", (
        "repro.dns.message:DnsMessage.encode",
        "repro.dns.message:DnsMessage.decode",
        "repro.dns.message:DnsMessage.query",
    )),
    ("resolver", (
        "repro.dns.server:DnsServer.handle_query",
        "repro.dns.server:DnsServer.respond",
        "repro.xlat.dns64:DNS64Resolver.respond",
        "repro.core.intervention:PoisonedDNSServer.respond",
        "repro.core.rpz:RPZPolicyServer.respond",
        "repro.dns.zone:Zone.lookup",
        "repro.dns.resolver:StubResolver.resolve",
    )),
    ("xlat", (
        "repro.xlat.nat64:StatefulNAT64.translate_out",
        "repro.xlat.nat64:StatefulNAT64.translate_in",
        "repro.xlat.clat:Clat.outbound",
        "repro.xlat.clat:Clat.inbound",
        "repro.xlat.siit:translate_v4_to_v6",
        "repro.xlat.siit:translate_v6_to_v4",
    )),
    ("services", (
        "repro.services.http:http_get",
        "repro.services.http:http_get_over",
    )),
    ("clients", (
        "repro.clients.device:ClientDevice.bring_up",
        "repro.clients.device:ClientDevice.fetch",
        "repro.clients.device:ClientDevice.resolve_addresses",
        "repro.clients.device:ClientDevice.disconnect",
    )),
    ("testbed", (
        "repro.core.testbed:Testbed.__init__",
        "repro.core.testbed:Testbed.add_client",
    )),
    ("analysis", (
        "repro.analysis.adoption:run_adoption_sweep",
        "repro.analysis.adoption:run_adoption_sweep_stats",
        "repro.analysis.adoption:sweep_table",
    )),
    ("parallel", (
        "repro.parallel.executor:SweepExecutor.map",
    )),
    ("fleet", (
        "repro.clients.fleet:calibrate_profiles",
        "repro.clients.fleet:outcome_tables",
        "repro.analysis.fleet:run_fleet_adoption_sweep",
        "repro.analysis.fleet:run_fleet_adoption_sweep_stats",
        "repro.analysis.fleet:run_fleet_population_stats",
        # The columnar work runs inside SweepExecutor.map; without these
        # it would count as the executor's own time.
        "repro.sim.fleet:FleetState.fill_runs",
        "repro.sim.fleet:FleetState.apply_outcomes",
        "repro.sim.fleet:FleetState.count",
        "repro.sim.fleet:FleetState.code_counts",
        "repro.sim.fleet:FleetState.export_columns",
        "repro.sim.fleet:FleetState.import_range",
        "repro.sim.fleet:FleetState.write_into",
        "repro.sim.fleet:FleetState.from_buffers",
    )),
)

#: Time outside every span: the benchmark's own loop and checks.
BENCH_LAYER = "bench"
LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS) + (BENCH_LAYER,)

#: Classes whose instances :class:`Collector` keeps, so counters can be
#: read from their public attributes after a unit.
COLLECTED = (
    "repro.sim.engine:EventEngine",
    "repro.sim.switch:ManagedSwitch",
    "repro.dhcp.server:DhcpServer",
    "repro.dns.server:DnsServer",
    "repro.xlat.nat64:StatefulNAT64",
)

_ABSENT = object()


def _resolve(spec: str) -> Optional[Tuple[Any, str]]:
    """``"pkg.mod:Class.attr"`` -> ``(owner, "attr")``, or ``None``."""
    module_name, _, qualname = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, name


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Patcher:
    """Replaces program attributes with wrappers and puts them back."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def patch(self, spec: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Wrap the function named by ``spec`` with ``make(fn)``, or record
        ``spec`` as missing when it does not exist or cannot be replaced."""
        target = _resolve(spec)
        if target is None:
            self.missing.append(spec)
            return
        owner, name = target
        if isinstance(owner, type):
            self._patch_method(spec, owner, name, make)
            return
        fn = getattr(owner, name, None)
        if not callable(fn):
            self.missing.append(spec)
            return
        wrapper = make(fn)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_method(
        self, spec: str, cls: type, name: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        raw = next((vars(k)[name] for k in cls.__mro__ if name in vars(k)), None)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(make(raw.__func__))
        elif callable(raw):
            replacement = make(raw)
        else:
            self.missing.append(spec)
            return
        try:
            self._set(cls, name, replacement)
        except (TypeError, AttributeError):  # e.g. a compiled extension type
            self.missing.append(spec)

    def _set(self, owner: Any, name: str, value: Any) -> None:
        original = vars(owner).get(name, _ABSENT)
        setattr(owner, name, value)
        self._undo.append((owner, name, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


class LayerTracer(Patcher):
    """Self time and call counts per layer, from entry-point spans.

    Use as a context manager around one traced unit; read :meth:`report`
    afterwards.  Spans are recorded only while :attr:`active` is set,
    which the unit's timed regions do, so set-up and output checks stay
    out of the layers.  Wrappers left on objects built inside the
    context pass straight through once it ends.
    """

    def __init__(self, layers: Sequence[Tuple[str, Sequence[str]]] = LAYERS) -> None:
        super().__init__()
        self.layers = [name for name, _ in layers]
        self._entry_specs = [(index, spec) for index, (_, specs) in enumerate(layers) for spec in specs]
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        #: Calls per entry point, by spec.
        self.entry_calls: Dict[str, int] = {}
        self.active = False
        self._stack: List[float] = []

    def __enter__(self) -> "LayerTracer":
        for layer, spec in self._entry_specs:
            self.entry_calls[spec] = 0
            self.patch(spec, functools.partial(self._span, layer, spec))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.active = False
        self.restore()

    def _span(self, layer: int, spec: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        entry_calls = self.entry_calls
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                entry_calls[spec] += 1
                if stack:
                    stack[-1] += elapsed

        return functools.update_wrapper(traced, fn)

    def report(self, total_s: float, bench_calls: int) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self_s)``; the bench layer gets the rest of
        ``total_s``, the wall time of the traced region."""
        out = {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.layers)}
        out[BENCH_LAYER] = (bench_calls, total_s - sum(self.self_s))
        return out


class Collector(Patcher):
    """Keeps every instance of :data:`COLLECTED` built while installed."""

    def __init__(self) -> None:
        super().__init__()
        self.instances: List[Any] = []

    def __enter__(self) -> "Collector":
        for spec in COLLECTED:
            self.patch(f"{spec}.__init__", self._keep)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def _keep(self, init: Callable[..., Any]) -> Callable[..., Any]:
        instances = self.instances

        def collecting(obj: Any, *args: Any, **kwargs: Any) -> None:
            init(obj, *args, **kwargs)
            instances.append(obj)

        return functools.update_wrapper(collecting, init)

    def of(self, spec: str) -> List[Any]:
        """Collected instances of the class named by ``spec``."""
        target = _resolve(spec)
        cls = getattr(target[0], target[1], None) if target is not None else None
        if not isinstance(cls, type):
            self.missing.append(spec)
            return []
        return [obj for obj in self.instances if isinstance(obj, cls)]

    def _read(self, obj: Any, spec: str, attr: str) -> Any:
        value = getattr(obj, attr, None)
        if value is None:
            self.missing.append(f"{spec}.{attr}")
        return value

    def total(self, spec: str, attr: str) -> int:
        """Sum of the public attribute ``attr`` over instances of ``spec``."""
        values = [self._read(obj, spec, attr) for obj in self.of(spec)]
        return sum(value for value in values if value is not None)

    def counters(self, handle_query_calls: Optional[int] = None) -> Dict[str, float]:
        """The pass's counters, read from public attributes.

        ``handle_query_calls`` comes from the tracer, so only a traced
        unit reports ``resolver.queries``.
        """
        switch = "repro.sim.switch:ManagedSwitch"
        ports = [
            port
            for obj in self.of(switch)
            for port in (self._read(obj, switch, "ports") or {}).values()
        ]
        hits = self.total("repro.dns.server:DnsServer", "cache_hits")
        misses = self.total("repro.dns.server:DnsServer", "cache_misses")
        counters: Dict[str, float] = {
            "engine.events": self.total("repro.sim.engine:EventEngine", "events_run"),
            "l2.frames": sum(self._read(port, "repro.sim.node:Port", "tx_frames") or 0 for port in ports),
            "control.dhcp_acks": self.total("repro.dhcp.server:DhcpServer", "acks_sent"),
            "control.option108_grants": self.total(
                "repro.dhcp.server:DhcpServer", "option_108_grants"
            ),
            "resolver.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "resolver.poison_answers": (
                self.total("repro.core.intervention:PoisonedDNSServer", "poison_answers")
                + self.total("repro.core.rpz:RPZPolicyServer", "rewritten")
            ),
            "resolver.dns64_synthesized": self.total(
                "repro.xlat.dns64:DNS64Resolver", "synthesized"
            ),
            "xlat.nat64_translations": (
                self.total("repro.xlat.nat64:StatefulNAT64", "translated_out")
                + self.total("repro.xlat.nat64:StatefulNAT64", "translated_in")
            ),
        }
        if handle_query_calls is not None:
            counters["resolver.queries"] = handle_query_calls
        return counters

    def clear(self) -> None:
        self.instances.clear()
