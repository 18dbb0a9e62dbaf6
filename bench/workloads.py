"""The benchmark's four workloads.

Every workload is a closed loop: one process issues one operation,
waits for it, and only then issues the next.  Inputs come from the seed
alone.  A workload runs in *units*; each unit times its measured
regions through :meth:`UnitResult.region` (which is also where a tracer
is switched on), splits them into :meth:`UnitResult.block` s that are
timed against the host's speed, and checks every output it produced.

- ``show_floor``: rounds of 300 arrivals on a fresh testbed with at
  most 60 attendees present.
- ``adoption_sweep``: the ``sweep`` CLI, mostly at ``--jobs 2`` with a
  ``--jobs 1`` reference run in every unit.
- ``dns_intervention``: bursts of wire queries straight into the three
  DNS servers.
- ``fleet_sweep``: the ``fleet`` CLI at a million devices per stage.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import ipaddress
import os
import random
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"

#: Failures printed in full per unit; the rest are only counted.
_SHOWN_FAILURES = 3

#: What :func:`probe` takes on a 2-core x86-64 sandbox at its usual speed.
#: Timings are reported in seconds of a host running at that speed.
REFERENCE_S = 0.00075


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The machines this runs on are shared, and the same code can run 1.6x
    slower for seconds at a time while a neighbour is busy.  The loop is
    interpreted bytecode like the program, so it slows alike.
    """
    start = time.perf_counter()
    total = 0
    for number in range(20_000):
        total += number
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor from wall seconds between two probes to reference seconds."""
    return REFERENCE_S * 2 / (before + after)


@dataclass
class UnitResult:
    """What one unit did: timings, operation counts and an output digest.

    Timings recorded inside a :meth:`block` are in reference seconds:
    wall seconds times the block's :func:`host_scale`.
    """

    #: When set, the tracer is active inside :meth:`region` only.
    tracer: Any = None
    #: Latency of each gated operation.
    ops_s: List[float] = field(default_factory=list)
    #: Gated operations per second of each block that completed any.
    rates: List[float] = field(default_factory=list)
    #: Wall time of every region, traced or not.
    region_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Ungated timings by name (``join``/``fetch``, ``query``, ``serial``).
    phases: Dict[str, List[float]] = field(default_factory=dict)
    digest: Any = field(default_factory=hashlib.sha256)

    @contextlib.contextmanager
    def region(self) -> Iterator[None]:
        gc.collect()
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.region_s += time.perf_counter() - start
            if tracer is not None:
                tracer.active = False

    @contextlib.contextmanager
    def block(self) -> Iterator[None]:
        """Time what runs inside between two probes, and rescale the
        operations and phases recorded meanwhile by the host's speed."""
        ops = len(self.ops_s)
        phases = {name: len(values) for name, values in self.phases.items()}
        before = probe()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            scale = host_scale(before, probe())
            self.ops_s[ops:] = [seconds * scale for seconds in self.ops_s[ops:]]
            for name, values in self.phases.items():
                first = phases.get(name, 0)
                values[first:] = [seconds * scale for seconds in values[first:]]
            if len(self.ops_s) > ops:
                self.rates.append((len(self.ops_s) - ops) / (wall * scale))

    def fail(self, detail: str) -> None:
        self.failed += 1
        if self.failed <= _SHOWN_FAILURES:
            print(f"bench: FAILED {detail}", file=sys.stderr)

    def phase(self, name: str, seconds: float) -> None:
        self.phases.setdefault(name, []).append(seconds)

    def merge(self, other: "UnitResult") -> None:
        self.ops_s += other.ops_s
        self.rates += other.rates
        self.region_s += other.region_s
        self.attempted += other.attempted
        self.failed += other.failed
        for name, values in other.phases.items():
            self.phases.setdefault(name, []).extend(values)


def _exception(result: UnitResult, what: str) -> None:
    result.fail(f"{what} raised:\n{traceback.format_exc()}")


# ---------------------------------------------------------------------------
# show_floor
# ---------------------------------------------------------------------------

#: The SC24 attendee mix per 50 arrivals, by profile name in
#: repro.clients.profiles.
SHOW_FLOOR_MIX = (
    ("IOS", 12),
    ("ANDROID", 10),
    ("MACOS", 8),
    ("WINDOWS_10", 8),
    ("WINDOWS_11", 5),
    ("LINUX", 4),
    ("NINTENDO_SWITCH", 3),
)
SC24 = "sc24.supercomputing.org"


class ShowFloor:
    """Attendees join, browse sc24.supercomputing.org, and leave.

    Arrivals come in shuffled blocks of 50 that each hold the exact mix,
    so every round has the same composition and only the order depends
    on the seed.  Once ``present`` attendees are on the floor the oldest
    leaves (DHCPRELEASE) before the next arrives, which keeps the
    50-address pool from running dry.  Rounds have a fixed length
    because join cost grows with the ports and leases departed
    attendees leave behind.  A round is timed in blocks of ``block``
    arrivals, departures included.
    """

    name = "show_floor"

    #: Arrivals timed between two speed probes.
    block = 10

    def __init__(self, seed: int, arrivals: int = 300, present: int = 60) -> None:
        from repro.clients import profiles

        self.seed = seed
        self.arrivals = arrivals
        self.present = present
        self._block = [getattr(profiles, name) for name, count in SHOW_FLOOR_MIX for _ in range(count)]

    def setup_sample(self) -> float:
        """One ``Testbed(TestbedConfig())`` build."""
        from repro.core.testbed import Testbed, TestbedConfig

        gc.collect()
        start = time.perf_counter()
        Testbed(TestbedConfig())
        return time.perf_counter() - start

    def arrival_profiles(self, index: int) -> List[Any]:
        rng = random.Random(f"show_floor:{self.seed}:{index}")
        order: List[Any] = []
        while len(order) < self.arrivals:
            block = list(self._block)
            rng.shuffle(block)
            order += block
        return order[: self.arrivals]

    def unit(self, index: int, result: UnitResult) -> None:
        """One round on a fresh testbed, in blocks of ``block`` arrivals."""
        from repro.core.testbed import Testbed, TestbedConfig

        profiles = self.arrival_profiles(index)
        present: deque = deque()
        with result.region():
            testbed = Testbed(TestbedConfig())
            for first in range(0, len(profiles), self.block):
                with result.block():
                    for number in range(first, min(first + self.block, len(profiles))):
                        self._arrive(testbed, present, number, profiles[number], result)

    def _arrive(self, testbed: Any, present: deque, number: int, profile: Any, result: UnitResult) -> None:
        clock = time.perf_counter
        result.attempted += 1
        try:
            if len(present) >= self.present:
                present.popleft().disconnect()
            start = clock()
            client = testbed.add_client(profile, f"attendee-{number}")
            joined = clock()
            outcome = client.fetch(SC24)
            fetched = clock()
        except Exception:
            _exception(result, f"arrival {number} ({profile.name})")
            return
        present.append(client)
        result.ops_s.append(fetched - start)
        result.phase("join", joined - start)
        result.phase("fetch", fetched - joined)
        got = (outcome.landed_on, outcome.family)
        result.digest.update(f"{profile.name}|{got}\n".encode())
        want = (SC24, "ipv6") if profile.ipv6_enabled else ("ip6.me", "ipv4")
        if got != want:
            result.fail(f"{profile.name} landed on {got}, expected {want}")

    def traced_unit(self, result: UnitResult) -> None:
        self.unit(0, result)


# ---------------------------------------------------------------------------
# adoption_sweep / fleet_sweep
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.__main__\n"
    "print(time.perf_counter() - start)\n"
)


class CliSweep:
    """One ``python -m repro`` command, run in-process with output captured.

    A unit is a block of ``parallel`` runs at ``--jobs 2`` (the gated
    operation) and ``serial`` runs at ``--jobs 1`` (the reference for
    the parallel speedup), in an order shuffled by the seed.  Every run's
    stdout must match the committed golden file byte for byte.  The
    traced unit runs ``traced`` times at ``--jobs 1`` so that every
    layer executes in this process.

    Set-up is what a CLI user pays before the first run: importing the
    CLI in a fresh interpreter.
    """

    def __init__(
        self,
        name: str,
        argv: Sequence[str],
        golden: str,
        seed: int,
        parallel: int = 10,
        serial: int = 2,
        traced: int = 5,
    ) -> None:
        self.name = name
        self.argv = list(argv)
        self.golden = (GOLDEN / golden).read_text()
        self.seed = seed
        self.parallel = parallel
        self.serial = serial
        self.traced = traced
        self.jobs = 2

    def setup_sample(self) -> float:
        """Import time of ``repro.__main__`` in a fresh interpreter."""
        child = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        return float(child.stdout)

    def run(self, jobs: int, result: UnitResult) -> bool:
        """One CLI run, timed as a gated operation at ``--jobs 2`` and as
        the ``serial`` phase at ``--jobs 1``.  Whether its output was right."""
        from repro.__main__ import main

        out, err = io.StringIO(), io.StringIO()
        result.attempted += 1
        try:
            with result.region(), result.block():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    code = main([*self.argv, "--jobs", str(jobs)])
                    wall = time.perf_counter() - start
                if jobs == 1:
                    result.phase("serial", wall)
                else:
                    result.ops_s.append(wall)
        except (Exception, SystemExit):
            _exception(result, f"{self.name} --jobs {jobs}")
            return False
        stdout = out.getvalue()
        result.digest.update(stdout.encode())
        if code != 0 or stdout != self.golden:
            result.fail(
                f"{self.name} --jobs {jobs} exited {code}; stdout differs from golden:\n"
                f"{stdout}{err.getvalue()}"
            )
            return False
        return True

    def unit(self, index: int, result: UnitResult) -> None:
        order = [self.jobs] * self.parallel + [1] * self.serial
        random.Random(f"{self.name}:{self.seed}:{index}").shuffle(order)
        for jobs in order:
            self.run(jobs, result)

    def traced_unit(self, result: UnitResult) -> None:
        for _ in range(self.traced):
            self.run(1, result)

    def parallel_unit(self, result: UnitResult) -> None:
        """The traced unit's work at ``--jobs 2``, untraced."""
        for _ in range(self.traced):
            self.run(self.jobs, result)


def adoption_sweep(seed: int, **sizes: int) -> CliSweep:
    return CliSweep(
        "adoption_sweep", ["sweep", "--fleet", "15"], "sweep_fleet15.txt", seed, **sizes
    )


def fleet_sweep(seed: int, **sizes: int) -> CliSweep:
    return CliSweep(
        "fleet_sweep", ["fleet", "--devices", "1000000"], "fleet_1m.txt", seed, **sizes
    )


# ---------------------------------------------------------------------------
# dns_intervention
# ---------------------------------------------------------------------------

ZONE = "supercomputing.org"
_NAT64_PREFIX = int(ipaddress.IPv6Address("64:ff9b::"))
POISONER, DNS64, RPZ = 0, 1, 2
#: Share of queries per server, in server-index order.
SERVER_WEIGHTS = (50, 40, 10)


def _host_address(index: int) -> str:
    """Host addresses come from the RFC 2544 benchmarking range."""
    return f"198.18.{index >> 8}.{index & 255}"


class _Servers:
    """One zone and the three servers built on it."""

    def __init__(self, hosts: Sequence[str]) -> None:
        from repro.core.intervention import InterventionConfig, PoisonedDNSServer
        from repro.core.rpz import RpzConfig, RPZPolicyServer
        from repro.dns.zone import Zone
        from repro.services.ip6me import IP6ME_V4
        from repro.xlat.dns64 import DNS64Resolver

        self.zone = Zone(ZONE)
        for index, name in enumerate(hosts):
            self.zone.add_a(name, _host_address(index))
        dns64 = DNS64Resolver([self.zone])
        self.servers = (
            PoisonedDNSServer(InterventionConfig(poison_address=IP6ME_V4), dns64.handle_query),
            dns64,
            RPZPolicyServer(RpzConfig(poison_address=IP6ME_V4), dns64.handle_query),
        )


class DnsIntervention:
    """Wire queries sent straight to ``handle_query``, with no engine.

    The poisoner forwards to the DNS64, and so does the RPZ server.
    Names: 80% from a 64-name hot set, 15% from the whole 2,000-host
    zone, and 5% unique nonexistent names (figure 9).  A and AAAA are
    50/50.  A unit is a chunk of ``chunk`` queries followed by one zone
    write, which invalidates the DNS64's response cache.  The servers
    are rebuilt every ``life`` queries so their query logs stay bounded.

    The gated operation is a burst of ``burst`` consecutive queries, the
    lookups of one page; its time is the sum of its queries' times.  A
    single query's median is not gated: about half the queries are
    DNS64 cache hits several times faster than the rest, so that median
    sits at the edge of the fast group and jumps with the mix.
    """

    name = "dns_intervention"
    #: Queries in one gated operation, and queries timed between two
    #: speed probes (a whole number of bursts).
    burst = 20
    block = 500

    def __init__(
        self,
        seed: int,
        hosts: int = 2000,
        hot: int = 64,
        chunk: int = 5000,
        life: int = 100_000,
        traced_queries: int = 25_000,
    ) -> None:
        from repro.dns.rdata import RRType

        self.seed = seed
        self.chunk = chunk
        self.chunks_per_life = max(1, life // chunk)
        self.traced_queries = traced_queries
        self.hosts = [f"host{index}.{ZONE}" for index in range(hosts)]
        self._address = {name: _host_address(index) for index, name in enumerate(self.hosts)}
        self.hot = random.Random(f"dns:{seed}:hot").sample(self.hosts, min(hot, hosts))
        self._qtypes = (RRType.A, RRType.AAAA)
        self._servers: Optional[_Servers] = None
        self._templates: Dict[Tuple[str, int], bytes] = {}
        self._traced: Optional[List[Tuple[int, str, int, bytes]]] = None

    def setup_sample(self) -> float:
        """One build of the zone and the three servers."""
        gc.collect()
        start = time.perf_counter()
        _Servers(self.hosts)
        return time.perf_counter() - start

    def corpus(self, tag: str, count: int) -> List[Tuple[int, str, int, bytes]]:
        """``count`` queries as ``(server, name, qtype, wire)``."""
        from repro.dns.message import DnsMessage

        rng = random.Random(f"dns:{self.seed}:{tag}")
        queries = []
        for number in range(count):
            server = rng.choices((POISONER, DNS64, RPZ), SERVER_WEIGHTS)[0]
            draw = rng.random()
            if draw < 0.80:
                name = rng.choice(self.hot)
            elif draw < 0.95:
                name = rng.choice(self.hosts)
            else:
                name = f"nx-{tag}-{number}.{ZONE}"
            qtype = self._qtypes[rng.random() < 0.5]
            template = self._templates.get((name, qtype))
            if template is None:
                template = DnsMessage.query(name, qtype, ident=0).encode()
                if name in self._address:
                    self._templates[(name, qtype)] = template
            wire = (number & 0xFFFF).to_bytes(2, "big") + template[2:]
            queries.append((server, name, qtype, wire))
        return queries

    def _chunk(
        self, servers: _Servers, queries: Sequence[Tuple[int, str, int, bytes]], write: str, result: UnitResult
    ) -> None:
        handlers = [server.handle_query for server in servers.servers]
        responses: List[Optional[bytes]] = []
        latencies = result.phases.setdefault("query", [])
        clock = time.perf_counter
        with result.region():
            for first in range(0, len(queries), self.block):
                with result.block():
                    for burst in range(first, min(first + self.block, len(queries)), self.burst):
                        began = len(latencies)
                        for server, _name, _qtype, wire in queries[burst : burst + self.burst]:
                            start = clock()
                            try:
                                response = handlers[server](wire)
                            except Exception:
                                response = None
                                _exception(result, f"query {wire!r} to server {server}")
                            latencies.append(clock() - start)
                            responses.append(response)
                        result.ops_s.append(sum(latencies[began:]))
            servers.zone.add_a(f"{write}.{ZONE}", "198.19.0.1")
        result.attempted += len(queries)
        for query, response in zip(queries, responses):
            error = self.check(query, response)
            if error is not None:
                result.fail(error)
            if response is not None:
                result.digest.update(response)

    def unit(self, index: int, result: UnitResult) -> None:
        if self._servers is None or index % self.chunks_per_life == 0:
            self._servers = None  # free the old query logs before building
            self._servers = _Servers(self.hosts)
        queries = self.corpus(f"chunk{index}", self.chunk)
        self._chunk(self._servers, queries, f"write-{index}", result)

    def traced_unit(self, result: UnitResult) -> None:
        if self._traced is None:
            self._traced = self.corpus("traced", self.traced_queries)
        servers = _Servers(self.hosts)
        for start in range(0, len(self._traced), self.chunk):
            self._chunk(servers, self._traced[start : start + self.chunk], f"traced-{start}", result)

    # -- correctness -----------------------------------------------------------

    def check(self, query: Tuple[int, str, int, bytes], response: Optional[bytes]) -> Optional[str]:
        """None if ``response`` is right for ``query``, else what is wrong."""
        server, name, qtype, wire = query
        if response is None:
            return f"no response from server {server} for {name}"
        if response[:2] != wire[:2]:
            return f"ident mismatch for {name}"
        from repro.dns.message import DnsMessage
        from repro.dns.name import DnsName
        from repro.dns.rdata import RCode, RRType
        from repro.services.ip6me import IP6ME_V4

        message = DnsMessage.decode(response)
        where = f"server {server} {name} type {qtype}"
        if not message.header.is_response or message.question.name != DnsName(name):
            return f"{where}: not a response to the query"
        real = self._address.get(name)
        if qtype == RRType.A and (server == POISONER or (server == RPZ and real is not None)):
            want: Tuple[Any, ...] = (RCode.NOERROR, (RRType.A, IP6ME_V4))
        elif real is None:
            want = (RCode.NXDOMAIN,)
        elif qtype == RRType.A:
            want = (RCode.NOERROR, (RRType.A, ipaddress.IPv4Address(real)))
        else:
            # RFC 6052 at /96: the IPv4 address is the low 32 bits of 64:ff9b::/96.
            synthesized = ipaddress.IPv6Address(_NAT64_PREFIX | int(ipaddress.IPv4Address(real)))
            want = (RCode.NOERROR, (RRType.AAAA, synthesized))
        got = (message.rcode,) + tuple((rr.rrtype, rr.rdata.address) for rr in message.answers)
        if got != want:
            return f"{where}: got {got}, expected {want}"
        return None


def make(name: str, seed: int, **sizes: int) -> Any:
    """The workload called ``name``, with its inputs drawn from ``seed``."""
    factories = {
        "show_floor": ShowFloor,
        "adoption_sweep": adoption_sweep,
        "dns_intervention": DnsIntervention,
        "fleet_sweep": fleet_sweep,
    }
    return factories[name](seed, **sizes)
