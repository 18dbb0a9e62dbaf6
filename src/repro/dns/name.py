"""DNS domain names: normalization, wire encoding and compression
pointers (RFC 1035 §3.1, §4.1.4).

The label-level wire codec (:func:`encode_labels`, :func:`decode_labels`)
works on label *tuples* and raw ``bytes``; :class:`DnsName` adds the
value type, its parse cache and the per-instance wire cache on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["DnsName", "NameCompressor"]

MAX_LABEL = 63
MAX_NAME = 255

#: Memo of successfully parsed string names — zone setup and query paths
#: construct the same handful of names over and over.
_LABELS_CACHE: Dict[str, Tuple[str, ...]] = {}
_LABELS_CACHE_LIMIT = 4096


def encode_labels(labels: Tuple[str, ...]) -> bytes:
    """Uncompressed RFC 1035 §3.1 wire rendering of a label tuple."""
    out = bytearray()
    for label in labels:
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def decode_labels(data: bytes, offset: int) -> Tuple[Tuple[str, ...], int]:
    """Decode a (possibly compressed) name starting at ``offset``.

    Returns the lowercased label tuple and the offset just past the
    name's in-place encoding.  Handles pointer chains with loop
    protection (RFC 1035 §4.1.4).  The labels are interned, so the
    names that every decode of the same query or reply yields, and the
    query-log entries that keep them, share one copy of each label.
    """
    labels: List[str] = []
    end = -1
    seen: Set[int] = set()
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated DNS name")
        length = data[pos]
        if length & 0xC0 == 0xC0:  # compression pointer
            if pos + 1 >= len(data):
                raise ValueError("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[pos + 1]
            if end < 0:
                end = pos + 2
            if target in seen:
                raise ValueError("compression pointer loop")
            seen.add(target)
            pos = target
        elif length & 0xC0:
            raise ValueError(f"reserved label type {length:#04x}")
        elif length == 0:
            if end < 0:
                end = pos + 1
            return tuple(labels), end
        else:
            if pos + 1 + length > len(data):
                raise ValueError("truncated DNS label")
            labels.append(intern(data[pos + 1 : pos + 1 + length].decode("ascii").lower()))
            if len(labels) > 128:
                raise ValueError("too many labels")
            pos += 1 + length


@dataclass(frozen=True)
class DnsName:
    """A fully-qualified, case-normalized domain name.

    Names compare and hash case-insensitively (stored lowercased), per
    RFC 1035 §2.3.3.  The root name is the empty string ``""`` or ``"."``.

    >>> DnsName("SC24.Supercomputing.ORG") == DnsName("sc24.supercomputing.org.")
    True
    """

    labels: Tuple[str, ...]

    def __init__(self, name) -> None:
        if isinstance(name, DnsName):
            object.__setattr__(self, "labels", name.labels)
            return
        is_str = isinstance(name, str)
        if is_str:
            cached = _LABELS_CACHE.get(name)
            if cached is not None:
                object.__setattr__(self, "labels", cached)
                return
        if isinstance(name, (tuple, list)):
            labels = tuple(str(l).lower() for l in name)
        else:
            text = str(name).strip().rstrip(".")
            labels = tuple(l.lower() for l in text.split(".")) if text else ()
        for label in labels:
            if not label:
                raise ValueError(f"empty label in domain name {name!r}")
            if len(label) > MAX_LABEL:
                raise ValueError(f"label too long in {name!r}: {label!r}")
        if sum(len(l) + 1 for l in labels) + 1 > MAX_NAME:
            raise ValueError(f"domain name too long: {name!r}")
        object.__setattr__(self, "labels", labels)
        if is_str:
            if len(_LABELS_CACHE) >= _LABELS_CACHE_LIMIT:
                _LABELS_CACHE.clear()
            _LABELS_CACHE[name] = labels

    # -- structure -----------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "DnsName":
        """The name with its leftmost label removed. Root's parent is root."""
        return DnsName(self.labels[1:]) if self.labels else self

    def child(self, label: str) -> "DnsName":
        return DnsName((label.lower(),) + self.labels)

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when ``self`` equals or lies under ``other``."""
        if len(other.labels) > len(self.labels):
            return False
        return self.labels[len(self.labels) - len(other.labels):] == other.labels

    def concatenate(self, suffix: "DnsName") -> "DnsName":
        """Append ``suffix`` — the domain-search-list operation of figure 9
        (``vpn.anl.gov`` + ``rfc8925.com`` → ``vpn.anl.gov.rfc8925.com``)."""
        return DnsName(self.labels + suffix.labels)

    @property
    def label_count(self) -> int:
        return len(self.labels)

    # -- wire format -----------------------------------------------------------

    def encode(self, compressor: Optional["NameCompressor"] = None) -> bytes:
        """Encode to wire format, optionally using compression pointers.

        The uncompressed rendering is cached on the instance — names are
        immutable and the same zone/question names are written into
        every response.
        """
        if compressor is not None:
            return compressor.encode(self)
        wire = self.__dict__.get("_wire_cache")
        if wire is None:
            wire = encode_labels(self.labels)
            object.__setattr__(self, "_wire_cache", wire)
        return wire

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["DnsName", int]:
        """Decode a (possibly compressed) name starting at ``offset``.

        Returns the name and the offset just past its in-place encoding.
        Handles pointer chains with loop protection.

        :func:`decode_labels` already lowercases the labels and bounds
        each one, so the name is built from its tuple as is; only the
        total length is left to check, since pointers can assemble a
        name longer than any one stretch of the message.
        """
        labels, end = decode_labels(data, offset)
        if sum(map(len, labels)) + len(labels) + 1 > MAX_NAME:
            raise ValueError(f"domain name too long: {'.'.join(labels)!r}")
        name = object.__new__(cls)
        object.__setattr__(name, "labels", labels)
        return name, end

    def __str__(self) -> str:
        return ".".join(self.labels) if self.labels else "."

    def __repr__(self) -> str:
        return f"DnsName('{self}')"


class NameCompressor:  # repro: allow[RL201]
    """Tracks name→offset mappings while building one DNS message,
    emitting RFC 1035 §4.1.4 compression pointers for repeated suffixes.

    One-sided by design (hence the RL201 pragma): compression state only
    exists while *writing* a message; the decode direction lives in
    :meth:`DnsName.decode`, which follows pointers statelessly.
    """

    def __init__(self) -> None:
        self._offsets: Dict[Tuple[str, ...], int] = {}
        self._written = 0

    def note_position(self, absolute_offset: int) -> None:
        """Tell the compressor where in the message the next write lands."""
        self._written = absolute_offset

    def encode(self, name: DnsName) -> bytes:
        labels = name.labels
        # Whole-name pointer reuse: a name written earlier in the message
        # (the overwhelmingly common case — answer owner == question
        # name) compresses to one 2-byte pointer without walking labels.
        known = self._offsets.get(labels)
        if known is not None and known < 0x4000:
            self._written += 2
            return (0xC000 | known).to_bytes(2, "big")
        out = bytearray()
        for i in range(len(labels)):
            suffix = labels[i:]
            known = self._offsets.get(suffix)
            if known is not None and known < 0x4000:
                out += (0xC000 | known).to_bytes(2, "big")
                self._written += len(out)
                return bytes(out)
            offset_here = self._written + len(out)
            if offset_here < 0x4000:
                self._offsets[suffix] = offset_here
            raw = labels[i].encode("ascii")
            out.append(len(raw))
            out += raw
        out.append(0)
        self._written += len(out)
        return bytes(out)
