"""``python -m repro.lint [paths]``."""

from __future__ import annotations

import sys

from repro._cli import run_piped
from repro.lint.cli import main

if __name__ == "__main__":
    sys.exit(run_piped(main))
