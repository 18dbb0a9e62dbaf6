# repro-lint-module: repro.sim.fixture
"""RL104 positive: object identity used for ordering, and id() values
that reach the trace, the wire and an RNG seed two calls later."""
import random
import struct


def stable_order(entries: list) -> list:
    return sorted(entries, key=id)


def ident_token(obj):
    return id(obj)


def tag(obj):
    return ident_token(obj) & 0xFFFF


def emit(trace, obj):
    trace.record("client0", "eth0", "tx", tag(obj))


def make_ident(pkt):
    return id(pkt) & 0xFFFF


def encode_header(pkt, proto):
    return struct.pack("!HH", proto, make_ident(pkt))


def shard_token(spec):
    return id(spec)


def make_rng(spec):
    return random.Random(shard_token(spec))
