"""Struct-of-arrays fleet state: million-host device populations.

The object-graph path (:class:`repro.sim.host.Host` behind a
:class:`repro.clients.device.ClientDevice`) costs kilobytes of Python
objects per device — interface, stack, resolver, sockets — which is the
right fidelity for tens of hosts on one broadcast domain and the wrong
one for a million-device adoption sweep.  This module is the flyweight
alternative: one :class:`FleetState` holds the whole population as
parallel byte columns, one byte per device per observable, and all
behaviour stays in the shared profile tables (:mod:`repro.clients.
profiles` evaluated once per distinct profile by
:mod:`repro.clients.fleet`).

Layout invariants (see DESIGN.md "Fleet-scale state"):

- every column is a ``bytearray`` of exactly ``size`` entries; device
  ``i`` is row ``i`` of every column — there is no per-device object;
- the ``profile`` column is the only *input* column; the five outcome
  columns are derived from it in one pass via ``bytes.translate`` with
  256-byte tables built from per-profile calibration, so evaluation
  cost is a C-speed memcpy-with-lookup, not a Python loop;
- column codes are small ints (``< 256``), defined here as module
  constants so the layer stays free of enum boxing;
- aggregation never iterates devices in Python: counts come from
  ``bytearray.count`` and fold into the streaming accumulators of
  :mod:`repro.core.metrics`.

The columns deliberately mirror what the object path can observe about
a client (addressing mode, DHCPv4/RA state, DNS outcome, Happy-Eyeballs
verdict, census class) so later PRs can diverge *individual* rows —
fault injection, per-device jitter — without changing the layout.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "FleetState",
    "ALL_COLUMNS",
    "OUTCOME_COLUMNS",
    "ADDR_NONE",
    "ADDR_V4_ONLY",
    "ADDR_DUAL",
    "ADDR_V6_ONLY",
    "DHCP4_NO_LEASE",
    "DHCP4_LEASED",
    "DHCP4_V6ONLY_GRANT",
    "RA6_NONE",
    "RA6_SLAAC",
    "DNS_FAILED",
    "DNS_A_ANSWER",
    "DNS_AAAA_ANSWER",
    "DNS_DNS64_SYNTH",
    "DNS_POISON_REDIRECT",
    "HE_FAILED",
    "HE_OK_V4",
    "HE_OK_V6",
]

# -- column codes (one byte per device per column) --------------------------

#: addressing mode the device ended up with
ADDR_NONE = 0
ADDR_V4_ONLY = 1
ADDR_DUAL = 2
ADDR_V6_ONLY = 3

#: DHCPv4 conversation outcome
DHCP4_NO_LEASE = 0
DHCP4_LEASED = 1
DHCP4_V6ONLY_GRANT = 2  # option 108 honoured (RFC 8925)

#: RA / SLAAC outcome (the testbed's v6 control plane)
RA6_NONE = 0
RA6_SLAAC = 1

#: DNS outcome of the reference browse
DNS_FAILED = 0
DNS_A_ANSWER = 1
DNS_AAAA_ANSWER = 2
DNS_DNS64_SYNTH = 3  # synthesized AAAA (NAT64 path)
DNS_POISON_REDIRECT = 4  # the paper's intervention fired

#: Happy-Eyeballs-style connection verdict of the reference browse
HE_FAILED = 0
HE_OK_V4 = 1
HE_OK_V6 = 2

#: Derived columns, in their canonical order.  ``census`` carries the
#: :class:`repro.core.metrics.ClientClass` code assigned by the
#: calibration layer (see :data:`repro.clients.fleet.CENSUS_CODES`).
OUTCOME_COLUMNS: Tuple[str, ...] = ("addressing", "dhcp4", "ra6", "dns", "he", "census")

#: Every column a :class:`FleetState` holds, in canonical layout order.
ALL_COLUMNS: Tuple[str, ...] = ("profile",) + OUTCOME_COLUMNS


def make_translation_table(codes: Mapping[int, int]) -> bytes:
    """A 256-byte ``bytes.translate`` table mapping profile code → column code.

    Unmapped profile codes translate to 0 — every column's 0 value is
    its "nothing happened" state, so an unknown profile reads as inert
    rather than aliasing a real outcome.
    """
    table = bytearray(256)
    for profile_code, column_code in codes.items():
        if not 0 <= profile_code < 256:
            raise ValueError(f"profile code {profile_code} out of byte range")
        if not 0 <= column_code < 256:
            raise ValueError(f"column code {column_code} out of byte range")
        table[profile_code] = column_code
    return bytes(table)


class FleetState:
    """One device population as parallel byte columns (no per-device objects)."""

    __slots__ = ("size", "profile", "addressing", "dhcp4", "ra6", "dns", "he", "census")

    def __init__(self, size: int) -> None:
        if size < 0:
            raise ValueError(f"fleet size must be non-negative, got {size}")
        self.size = size
        self.profile = bytearray(size)
        self.addressing = bytearray(size)
        self.dhcp4 = bytearray(size)
        self.ra6 = bytearray(size)
        self.dns = bytearray(size)
        self.he = bytearray(size)
        self.census = bytearray(size)

    # -- population ----------------------------------------------------------

    def fill_runs(self, runs: Sequence[Tuple[int, int]]) -> None:
        """Fill the profile column from ``(profile_code, count)`` runs.

        Runs are contiguous, so each fills via one C-level slice
        assignment; the run list is the same compact shape a
        :class:`repro.analysis.adoption.FleetMix` already carries.
        """
        offset = 0
        for code, count in runs:
            if count < 0:
                raise ValueError(f"negative run count {count}")
            if not 0 <= code < 256:
                raise ValueError(f"profile code {code} out of byte range")
            end = offset + count
            if end > self.size:
                raise ValueError(
                    f"runs describe {end}+ devices but the fleet holds {self.size}"
                )
            self.profile[offset:end] = bytes([code]) * count
            offset = end
        if offset != self.size:
            raise ValueError(f"runs describe {offset} devices, fleet holds {self.size}")

    def apply_outcomes(self, tables: Mapping[str, bytes]) -> None:
        """Derive every outcome column from the profile column in one
        ``translate`` pass per column (the vectorized evaluation)."""
        profile = bytes(self.profile)
        for column in OUTCOME_COLUMNS:
            table = tables.get(column)
            if table is None:
                raise KeyError(f"missing translation table for column {column!r}")
            if len(table) != 256:
                raise ValueError(f"table for {column!r} has {len(table)} entries, not 256")
            setattr(self, column, bytearray(profile.translate(table)))

    # -- column transport ----------------------------------------------------
    #
    # The population path moves whole columns from each shard's range
    # into its stage (export/import).  All four copies below are
    # straight C-level copies in canonical ALL_COLUMNS order; none ever
    # iterates devices.

    def export_columns(self) -> Dict[str, bytes]:
        """Immutable snapshot of every column, keyed by name.

        The population path's bulk payload: ~``bytes_per_device`` bytes
        per device when a worker returns this.
        """
        return {name: bytes(self.column(name)) for name in ALL_COLUMNS}

    def import_range(self, start: int, stop: int, columns: Mapping[str, bytes]) -> None:
        """Copy exported columns for devices ``[start, stop)`` into place."""
        if not 0 <= start <= stop <= self.size:
            raise ValueError(f"range ({start}, {stop}) outside fleet of {self.size}")
        for name in ALL_COLUMNS:
            data = columns[name]
            if len(data) != stop - start:
                raise ValueError(
                    f"column {name!r} carries {len(data)} bytes for a "
                    f"{stop - start}-device range"
                )
            self.column(name)[start:stop] = data

    def write_into(self, buffers: Mapping[str, memoryview]) -> None:
        """Copy every column into externally-owned writable buffers.

        ``buffers`` maps column name → a ``memoryview`` of exactly
        ``size`` bytes; each column lands with one slice assignment.
        No caller in the package uses it: it stays only because the
        benchmark's tracer names it, and goes with the population path.
        """
        for name in ALL_COLUMNS:
            target = buffers[name]
            if len(target) != self.size:
                raise ValueError(
                    f"buffer for column {name!r} holds {len(target)} bytes, "
                    f"fleet needs {self.size}"
                )
            target[:] = self.column(name)

    @classmethod
    def from_buffers(cls, size: int, buffers: Mapping[str, memoryview]) -> "FleetState":
        """Rebuild a fleet by copying columns out of external buffers,
        one C-level copy per column.

        No caller in the package uses it: it stays only because the
        benchmark's tracer names it, and goes with the population path.
        """
        state = cls(size)
        for name in ALL_COLUMNS:
            data = buffers[name]
            if len(data) != size:
                raise ValueError(
                    f"buffer for column {name!r} holds {len(data)} bytes, "
                    f"fleet needs {size}"
                )
            setattr(state, name, bytearray(data))
        return state

    # -- aggregation ---------------------------------------------------------

    def column(self, name: str) -> bytearray:
        if name != "profile" and name not in OUTCOME_COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        data = getattr(self, name)
        assert isinstance(data, bytearray)
        return data

    def count(self, name: str, code: int) -> int:
        """Devices whose ``name`` column holds ``code`` (C-speed count)."""
        return self.column(name).count(code)

    def code_counts(self, name: str) -> Dict[int, int]:
        """Occurrence count per code present in a column, code-ordered."""
        data = self.column(name)
        out: Dict[int, int] = {}
        for code in sorted(set(data)):
            out[code] = data.count(code)
        return out

    def profile_runs(self) -> List[Tuple[int, int]]:
        """Recover the ``(code, count)`` run-length view of the profile column."""
        runs: List[Tuple[int, int]] = []
        for code in self.profile:
            if runs and runs[-1][0] == code:
                runs[-1] = (code, runs[-1][1] + 1)
            else:
                runs.append((code, 1))
        return runs

    # -- accounting ----------------------------------------------------------

    @property
    def bytes_per_device(self) -> float:
        """Column bytes per device — the flyweight's whole footprint."""
        if self.size == 0:
            return 0.0
        total = sum(len(self.column(name)) for name in ALL_COLUMNS)
        return total / self.size

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"<FleetState {self.size} devices, {self.bytes_per_device:.0f} B/device>"
