#!/usr/bin/env python3
"""Quickstart: build the SC24v6 testbed, attach three devices, watch the
IPv4 DNS intervention work.  The walk-through lives in
:mod:`repro.demo`, so ``python -m repro demo`` prints the same.

Run:  python examples/quickstart.py
"""

from repro.demo import main

if __name__ == "__main__":
    main()
