# repro-lint-module: repro.sim.fixture
"""RL103 positive: set iteration order leaks into emitted rows, and
iter() hands the first member of a set to the caller."""


def emit_rows(pending: set) -> list:
    return [f"row {name}" for name in pending]


def first_pending(pending: set):
    return next(iter(pending))
