# repro-lint-module: repro.net.fixture
"""RL302 positive: attribute materializes outside __init__."""


class Codec:
    def __init__(self, wire: bytes) -> None:
        self.wire = wire

    def payload(self) -> bytes:
        self.cached = self.wire[2:]
        return self.cached
