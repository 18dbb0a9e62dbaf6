"""Peak resident set size, in bytes, for the ``fleet`` command's summary.

``getrusage`` reports the peak RSS a process ever reached, but in
platform-dependent units: Linux counts kibibytes,
macOS counts bytes (and some BSDs count pages).  Every consumer in
this repository wants plain bytes, so the normalization lives here once.

``ru_maxrss`` is a high-water mark — it only ever grows, so a reading
records "the largest this process has been up to now", not the
footprint of the last piece of work.
"""

from __future__ import annotations

import sys
from typing import Optional

__all__ = ["peak_rss_bytes"]


def _normalize_ru_maxrss(ru_maxrss: int) -> int:
    """``ru_maxrss`` in bytes: Linux reports KiB, Darwin reports bytes."""
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def peak_rss_bytes() -> Optional[int]:
    """This process's peak resident set size in bytes, or ``None``
    where it is unknown: without the ``resource`` module (non-POSIX
    platforms) there is no figure to report.
    """
    try:
        import resource
    except ImportError:
        return None
    return _normalize_ru_maxrss(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
