"""Cross-version helpers shared by the runtime packages."""

from __future__ import annotations

import sys
from dataclasses import dataclass

__all__ = ["slotted_dataclass"]


def slotted_dataclass(**kwargs):
    """``@dataclass(...)`` that adds ``slots=True`` on Python 3.10+.

    ``__slots__`` generation for dataclasses with field defaults only
    exists from 3.10; on 3.9 the decorated class is a plain dataclass
    with the identical API, just without the per-instance memory trim.
    """
    if sys.version_info >= (3, 10):
        kwargs.setdefault("slots", True)
    return dataclass(**kwargs)
