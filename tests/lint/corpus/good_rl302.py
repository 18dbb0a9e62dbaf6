# repro-lint-module: repro.net.fixture
"""RL302 negative: every attribute declared at construction time."""


class Codec:
    __slots__ = ("wire", "cached")

    def __init__(self, wire: bytes) -> None:
        self.wire = wire
        self.cached = None

    def payload(self) -> bytes:
        self.cached = self.wire[2:]
        return self.cached
