"""What the two command-line entry points share: ``python -m repro``
and ``python -m repro.lint``."""

from __future__ import annotations

import os
import sys
from typing import Any, Callable

__all__ = ["run_piped"]


def run_piped(command: Callable[..., int], *args: Any) -> int:
    """``command(*args)``'s exit status, or 0 without a traceback when
    the reader of stdout closed the pipe early (a pager or ``head``)."""
    try:
        status = command(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: point it at
        # /dev/null, so that flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status
