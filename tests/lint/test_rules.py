"""Per-rule fixture tests: every code has a minimal positive and
negative snippet in ``tests/lint/corpus`` (one pair per shipped rule).

Fixtures are linted through :func:`lint_paths`, the pipeline the CLI
runs, so every rule and the RL001 stale-suppression check see them.
The exception-flow cases pin which handlers and jumps RL701 and RL702
judge.  The planted defects at the end pin that every determinism
source is flagged where it occurs, however far its value travels
before it reaches an output.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint import all_rules, lint_paths

CORPUS = Path(__file__).parent / "corpus"
ALL_CODES = sorted(rule.code for rule in all_rules())


def codes_in(path: Path) -> set:
    return {finding.code for finding in lint_paths([path])}


def test_corpus_covers_every_rule():
    """A bad/good fixture pair exists for every registered code."""
    for code in ALL_CODES:
        stem = code.lower()
        assert (CORPUS / f"bad_{stem}.py").is_file(), f"missing positive fixture for {code}"
        assert (CORPUS / f"good_{stem}.py").is_file(), f"missing negative fixture for {code}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_positive_fixture_triggers(code):
    """Each bad fixture fires its own code and no other, so a rule that
    starts firing on another rule's fixture fails here."""
    found = codes_in(CORPUS / f"bad_{code.lower()}.py")
    assert found == {code}, f"bad_{code.lower()}.py should trigger only {code} (got {found})"


@pytest.mark.parametrize("code", ALL_CODES)
def test_negative_fixture_clean(code):
    found = codes_in(CORPUS / f"good_{code.lower()}.py")
    assert not found, f"good_{code.lower()}.py should be clean (got {found})"


def test_rule_codes_follow_families():
    """Codes stay within the documented families: RL0xx meta, RL1xx
    determinism, RL2xx wire, RL3xx hygiene, RL7xx exception-flow."""
    for code in ALL_CODES:
        assert code.startswith("RL") and len(code) == 5, code
        assert code[2] in "01237", f"unknown family for {code}"


def test_findings_report_location_and_hint():
    findings = [
        f for f in lint_paths([CORPUS / "bad_rl101.py"]) if f.code == "RL101"
    ]
    assert findings, "expected an RL101 finding"
    finding = findings[0]
    assert finding.line > 0
    assert "time.time" in finding.message
    assert finding.hint  # fix-it hint is part of the rule contract
    assert str(CORPUS / "bad_rl101.py") in finding.render()


def test_interprocedural_fixture_flagged_at_its_source():
    """The two-hop id() cases that once needed a dataflow rule (into
    trace.record, struct.pack and random.Random) fire RL104 on the
    id() line itself."""
    path = CORPUS / "bad_rl104.py"
    lines = path.read_text(encoding="utf-8").splitlines()
    sources = {n for n, line in enumerate(lines, start=1) if "return id(" in line}
    assert len(sources) == 3
    assert sources <= {f.line for f in lint_paths([path], select={"RL104"})}


def _handler_in_poll(clause: str, *body: str) -> str:
    """A function whose one ``try`` ends in ``clause`` and ``body``."""
    lines = ["def poll(x):", "    try:", "        x.step()", f"    {clause}"]
    return "\n".join(lines + [f"        {line}" for line in body]) + "\n"


#: RL701 cases: case -> (module, source).  ``# <- RL701`` marks each
#: handler that must be flagged, and only those.  Nothing schedules
#: ``poll``: the rule judges a handler wherever it sits in scope.
RL701_CASES = {
    "bare": ("repro.sim.fixture", _handler_in_poll("except:  # <- RL701", "pass")),
    "exception": ("repro.sim.fixture", _handler_in_poll("except Exception:  # <- RL701", "pass")),
    "base-exception": (
        "repro.core.fixture",
        _handler_in_poll("except BaseException:  # <- RL701", "return None"),
    ),
    "tuple": (
        "repro.services.fixture",
        _handler_in_poll("except (KeyError, Exception):  # <- RL701", "pass"),
    ),
    "narrow": ("repro.sim.fixture", _handler_in_poll("except KeyError:", "pass")),
    "re-raise": ("repro.sim.fixture", _handler_in_poll("except Exception:", "x.reset()", "raise")),
    "reads-bound-name": (
        "repro.sim.fixture",
        _handler_in_poll("except Exception as exc:", "x.failures.append(repr(exc))"),
    ),
    "traceback": (
        "repro.sim.fixture",
        _handler_in_poll("except BaseException:", "traceback.print_exc()"),
    ),
    "raise-in-nested-def": (
        "repro.sim.fixture",
        _handler_in_poll("except Exception:  # <- RL701", "def later():", "    raise"),
    ),
    "module-level": (
        "repro.sim.fixture",
        "try:\n    import fastpath\nexcept Exception:  # <- RL701\n    fastpath = None\n",
    ),
    "out-of-scope-main": ("repro.__main__", _handler_in_poll("except Exception:", "pass")),
}


@pytest.mark.parametrize("case", sorted(RL701_CASES))
def test_rl701_judges_broad_handlers(case, tmp_path):
    module, body = RL701_CASES[case]
    text = f"# repro-lint-module: {module}\n{body}"
    path = tmp_path / "fixture.py"
    path.write_text(text, encoding="utf-8")
    marked = [n for n, line in enumerate(text.splitlines(), start=1) if "# <- RL701" in line]
    assert [f.line for f in lint_paths([path], {"RL701"})] == marked


def test_finally_jump_local_loop_exempt(tmp_path):
    def rl702_lines(body: str) -> list:
        path = tmp_path / "fixture.py"
        path.write_text("# repro-lint-module: repro.sim.fixture\n" + body)
        return [f.line for f in lint_paths([path], {"RL702"})]

    local_loop = rl702_lines(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        while q:\n"
        "            if not q.pop():\n"
        "                break\n"
    )
    assert local_loop == []
    returns = rl702_lines(
        "def f(q):\n"
        "    try:\n"
        "        g(q)\n"
        "    finally:\n"
        "        return 0\n"
    )
    assert returns == [6]


#: Planted determinism defects, one per case: module name -> source.
#: Each value travels — up to two calls and across modules — into a
#: trace record, a metrics fold, a wire encoder or an RNG seed; the
#: line marked ``# <- CODE`` is the source, and the only finding.
PLANTED = {
    "time-trace-two-hop": {
        "repro.sim.fixa": (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()  # <- RL101\n"
            "def tag():\n"
            "    return int(stamp() * 1000)\n"
            "def emit(trace):\n"
            "    trace.record('c0', 'eth0', 'tx', tag())\n"
        ),
    },
    "entropy-fold-cross-module": {
        "repro.analysis.fixnoise": (
            "import random\n"
            "def jitter():\n"
            "    return random.random()  # <- RL102\n"
        ),
        "repro.analysis.fixfold": (
            "from repro.analysis.fixnoise import jitter\n"
            "def fold(census):\n"
            "    census.observe(jitter())\n"
        ),
    },
    "id-trace-cross-module": {
        "repro.sim.fixtoken": "def token(x):\n    return id(x)  # <- RL104\n",
        "repro.sim.fixemit": (
            "from repro.sim.fixtoken import token\n"
            "def emit(trace, x):\n"
            "    trace.record('c0', 'eth0', 'tx', token(x))\n"
        ),
    },
    "setorder-fold-two-hop": {
        "repro.analysis.fixb": (
            "def members(s: set):\n"
            "    return list(s)  # <- RL103\n"
            "def head(s):\n"
            "    return members(s)[0]\n"
            "def fold(census, s):\n"
            "    census.add_device(head(s))\n"
        ),
    },
    "setorder-for-first-member": {
        "repro.sim.fixc": (
            "def first(pending: set):\n"
            "    for name in pending:  # <- RL103\n"
            "        return name\n"
            "def emit(trace, pending):\n"
            "    trace.record('c0', 'eth0', 'tx', first(pending))\n"
        ),
    },
    "setorder-attribute-first-member": {
        "repro.sim.fixm": (
            "class Queue:\n"
            "    def __init__(self):\n"
            "        self.pending = set()\n"
            "    def first(self):\n"
            "        for name in self.pending:  # <- RL103\n"
            "            return name\n"
            "    def emit(self, trace):\n"
            "        trace.record('c0', 'eth0', 'tx', self.first())\n"
        ),
    },
    "compat-clock-helper": {
        "repro._compat": (
            "import time\n"
            "def wall():\n"
            "    return time.time()  # <- RL101\n"
        ),
        "repro.sim.fixclock": (
            "from repro._compat import wall\n"
            "def emit(trace):\n"
            "    trace.record('c0', 'eth0', 'tx', wall())\n"
        ),
    },
    "id-pack-two-hop": {
        "repro.net.fixd": (
            "import struct\n"
            "def ident_of(pkt):\n"
            "    return id(pkt)  # <- RL104\n"
            "def short_ident(pkt):\n"
            "    return ident_of(pkt) & 0xFFFF\n"
            "def encode(pkt):\n"
            "    return struct.pack('!H', short_ident(pkt))\n"
        ),
    },
    "time-encode-one-hop": {
        "repro.dns.fixe": (
            "import time\n"
            "def stamp():\n"
            "    return int(time.time())  # <- RL101\n"
            "def wire(Header):\n"
            "    return Header(ts=stamp()).encode()\n"
        ),
    },
    "entropy-pack-cross-module": {
        "repro.net.fixidents": (
            "import random\n"
            "def new_ident():\n"
            "    return random.getrandbits(16)  # <- RL102\n"
        ),
        "repro.net.fixwire": (
            "import struct\n"
            "from repro.net.fixidents import new_ident\n"
            "def encode():\n"
            "    return struct.pack('!H', new_ident())\n"
        ),
    },
    "setorder-encode-two-hop": {
        "repro.dns.fixf": (
            "def names(s: set):\n"
            "    return tuple(s)  # <- RL103\n"
            "def joined(s):\n"
            "    return ','.join(names(s))\n"
            "def wire(s):\n"
            "    return joined(s).encode()\n"
        ),
    },
    "entropy-to-bytes": {
        "repro.dhcp.fixg": (
            "import uuid\n"
            "def cookie():\n"
            "    return uuid.uuid4().int  # <- RL102\n"
            "def wire():\n"
            "    return cookie().to_bytes(16, 'big')\n"
        ),
    },
    "id-random-two-hop": {
        "repro.analysis.fixh": (
            "import random\n"
            "def shard_token(spec):\n"
            "    return id(spec)  # <- RL104\n"
            "def seed_of(spec):\n"
            "    return shard_token(spec) ^ 0x5EED\n"
            "def make_rng(spec):\n"
            "    return random.Random(seed_of(spec))\n"
        ),
    },
    "time-random-one-hop": {
        "repro.clients.fixi": (
            "import random\n"
            "import time\n"
            "def seed_now():\n"
            "    return int(time.monotonic())  # <- RL101\n"
            "def make_rng():\n"
            "    return random.Random(seed_now())\n"
        ),
    },
    "entropy-seed-cross-module": {
        "repro.core.fixentropy": (
            "import os\n"
            "def fresh():\n"
            "    return os.urandom(8)  # <- RL102\n"
        ),
        "repro.core.fixrng": (
            "from repro.core.fixentropy import fresh\n"
            "def reseed(rng):\n"
            "    rng.seed(fresh())\n"
        ),
    },
    "setorder-shardspec-two-hop": {
        "repro.analysis.fixj": (
            "from repro.parallel.shard import ShardSpec\n"
            "def pick(s: set):\n"
            "    return [x for x in s][0]  # <- RL103\n"
            "def seed_of(s):\n"
            "    return pick(s)\n"
            "def spec(s):\n"
            "    return ShardSpec(0, seed=seed_of(s))\n"
        ),
    },
    "time-seed-datetime": {
        "repro.services.fixk": (
            "from datetime import datetime\n"
            "def seconds():\n"
            "    return datetime.now().timestamp()  # <- RL101\n"
            "def reseed(rng):\n"
            "    rng.seed(seconds())\n"
        ),
    },
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_planted_source_flagged_where_it_occurs(case, tmp_path):
    paths, expected = [], set()
    for module, body in PLANTED[case].items():
        path = tmp_path / f"{module.replace('.', '_')}.py"
        text = f"# repro-lint-module: {module}\n{body}"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
        for lineno, line in enumerate(text.splitlines(), start=1):
            marker = re.search(r"# <- (RL\d{3})", line)
            if marker:
                expected.add((str(path), lineno, marker.group(1)))
    assert {(f.path, f.line, f.code) for f in lint_paths(paths)} == expected
