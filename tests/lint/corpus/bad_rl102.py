# repro-lint-module: repro.sim.fixture
"""RL102 positive: module-level RNG draws ambient entropy, and so does
a random.Random built without a seed."""
import random


def pick_backoff() -> float:
    return random.uniform(0.0, 1.0)


def fresh_stream() -> random.Random:
    return random.Random()


def fresh_stream_from_none() -> random.Random:
    return random.Random(None)
