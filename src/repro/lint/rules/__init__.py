"""Rule plugins.

Importing this package registers every rule with the core registry.
Modules are imported in sorted order so registration — and therefore
``--list-rules`` output — is deterministic (the linter holds itself to
its own RL103 standard).
"""

from __future__ import annotations

from repro.lint.rules import (
    determinism,
    flow_exceptions,
    hygiene,
    suppression,
    wire,
)

__all__ = [
    "determinism",
    "flow_exceptions",
    "hygiene",
    "suppression",
    "wire",
]
