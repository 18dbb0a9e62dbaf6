"""DNS server engines.

:class:`DnsServer` answers from authoritative :class:`~repro.dns.zone.Zone`
data — it plays the "healthy" resolver role (and, subclassed in
:mod:`repro.xlat.dns64`, the DNS64 role).  :class:`ForwardingDnsServer`
relays to an upstream, the building block dnsmasq-style configurations
are made of.

Servers consume and produce *wire bytes*; the simulator binds them to
UDP port 53 on a simulated host.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.dns.message import DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import RCode, RRClass
from repro.dns.zone import Zone

__all__ = ["DnsServer", "ForwardingDnsServer", "QueryLogEntry"]

#: A cache epoch: the version of each served zone, in order.
_Epoch = Tuple[int, ...]


@slotted_dataclass(frozen=True)
class QueryLogEntry:
    """One served query — the raw material for the paper's client counting.

    Entries are immutable, so a cached answer replayed without a client
    appends the very entries its record holds: a replayed entry costs
    the log one pointer, not a new object."""

    name: DnsName
    rrtype: int
    rcode: int
    answered_from: str  # "zone", "forwarded", "poison", "rpz", "refused"
    client: Optional[object] = None


@slotted_dataclass()
class _CachedResponse:
    """One response template: the wire bytes plus the side effects the
    original ``respond()`` produced, replayed on every hit.

    A record built from an upstream exchange also keeps the query sent
    upstream and the reply that came back, both without their 2-byte
    ident (``forwarded`` and ``reply``); records of zone answers keep
    ``None`` in both.

    ``labels`` is the query name's label tuple for a record of the zone
    rule (see :class:`DnsServer`), ``None`` for one of the upstream rule.
    ``log_entries`` hold no client."""

    epoch: _Epoch
    wire: bytes
    log_entries: List[QueryLogEntry]
    counter_deltas: List[Tuple[str, int]]
    labels: Optional[Tuple[str, ...]] = None
    forwarded: Optional[bytes] = None
    reply: Optional[bytes] = None


class DnsServer:
    """An authoritative DNS server over a set of zones.

    ``handle_query(wire) -> wire`` is the entire interface; everything
    else is bookkeeping.  Unknown names inside served zones yield
    NXDOMAIN with the zone SOA in the authority section; names outside
    every zone are REFUSED (this server does not recurse).

    Responses are cached as wire templates keyed by the query wire
    *minus its 2-byte ident* (``wire[2:]`` — flags, counts and question
    included), so a hit skips query *decoding* entirely; the ident is
    patched into the template on each hit.  A server's zones and its
    :attr:`config` are fixed when it is built (``config`` has no
    setter), so answers depend on nothing else that changes but the
    zones' records.  Every record carries the cache epoch it was last
    known valid under: the tuple of zone versions.  The server memoizes
    its epoch, and each zone clears the memo on every addition.  So a
    hit reads the memo and compares it with the record's epoch by
    identity first, by equality only after the memo was rebuilt.  One of
    two validity rules applies:

    - the *zone* rule: an answer built from this server's own data holds
      while the epoch does.  After zone writes it still holds, and is
      re-stamped with the new epoch, when no write since touched its
      query name or any name below it (:meth:`Zone.touched`).  So an
      answer is rebuilt when its own name changes, not once per query
      or per zone write;
    - the *upstream* rule (:class:`ForwardingDnsServer`): an answer
      built from an upstream exchange also depends on the upstream's
      reply, so a hit still sends the upstream the same query and
      replays only when the reply matches the recorded one byte for
      byte, under the very epoch it was recorded with.

    The cache holds at most ``_CACHE_LIMIT`` records and makes room by
    evicting the least recently used one.  Query-log entries and
    subclass counters (declared in ``_CACHE_COUNTERS``) recorded with the
    answer are replayed, so observable bookkeeping is identical with and
    without the cache; a replay without a client appends the record's
    own entries.  :attr:`cache_hits` and :attr:`cache_misses` count the
    zone rule only, re-stamped hits among the hits.
    """

    #: Counter attribute names whose increments must replay on cache hits.
    _CACHE_COUNTERS: Sequence[str] = ()

    _CACHE_LIMIT = 4096

    def __init__(self, zones: Sequence[Zone] = (), name: str = "dns") -> None:
        self.name = name
        self._zones: List[Zone] = list(zones)
        self.query_log: List[QueryLogEntry] = []
        #: Least recently used first.
        self._response_cache: "OrderedDict[bytes, _CachedResponse]" = OrderedDict()
        self._config: Any = None
        #: The cache epoch, or ``None`` once a zone changed.
        self._epoch: Optional[_Epoch] = None
        self.cache_hits = 0
        self.cache_misses = 0
        for zone in self._zones:
            zone._watch(self)

    @property
    def config(self) -> Any:
        """The poisoner's or RPZ server's configuration, ``None`` here;
        read-only, so cached answers never outlive it."""
        return self._config

    def _forget_epoch(self) -> None:
        """Called by a served zone after each of its mutations."""
        self._epoch = None

    def zone_for(self, name) -> Optional[Zone]:
        """The most specific zone covering ``name``."""
        dname = DnsName(name)
        best: Optional[Zone] = None
        for zone in self._zones:
            if zone.covers(dname):
                if best is None or zone.origin.label_count > best.origin.label_count:
                    best = zone
        return best

    # -- the wire interface ------------------------------------------------

    def handle_query(self, wire: bytes, client: Optional[object] = None) -> Optional[bytes]:
        """Process one query datagram; returns the response datagram.

        Malformed queries are dropped (``None``), mirroring real servers.
        """
        key = bytes(wire[2:])
        cache = self._response_cache
        cached = cache.get(key)
        if cached is not None:
            epoch = self._epoch
            if epoch is None:
                epoch = self._cache_epoch()
            if cached.epoch is epoch or self._still_holds(cached, epoch):
                cache.move_to_end(key)
                return self._hit(cached, wire, client)
        try:
            query = DnsMessage.decode(wire)
        except ValueError:
            return None
        if query.header.is_response or not query.questions:
            return None
        if len(query.questions) > 1:
            return self.respond(query, client).encode()
        return self._record(key, query, client)

    def _still_holds(self, cached: _CachedResponse, epoch: _Epoch) -> bool:
        """Whether ``cached``, stamped with another epoch object than the
        memo ``epoch``, still answers under it: the two are equal, or the
        zone rule holds across zone writes.  If it does, it is re-stamped
        with ``epoch``, so the next hit matches by identity."""
        if cached.epoch != epoch:
            labels = cached.labels
            if labels is None:
                return False
            for zone, stamped in zip(self._zones, cached.epoch):
                if zone.touched(labels) > stamped:
                    return False
        cached.epoch = epoch
        return True

    def _hit(self, cached: _CachedResponse, wire: bytes, client: Optional[object]) -> bytes:
        """Answer ``wire`` from ``cached``, a record whose epoch holds."""
        self.cache_hits += 1
        return self._replay(cached, wire, client)

    def _record(self, key: bytes, query: DnsMessage, client: Optional[object]) -> bytes:
        """Answer a one-question ``query`` that missed the cache, and
        record the answer under ``key`` by the zone rule."""
        epoch = self._cache_epoch()
        self.cache_misses += 1
        mark = self._mark()
        answer = self.respond(query, client).encode()
        self._store(key, epoch, answer, mark, query.question.name.labels)
        return answer

    def _mark(self) -> Tuple[int, List[int]]:
        """Where the query log and the cached counters stand now."""
        return len(self.query_log), [getattr(self, counter) for counter in self._CACHE_COUNTERS]

    def _store(
        self,
        key: bytes,
        epoch: _Epoch,
        answer: bytes,
        mark: Tuple[int, List[int]],
        labels: Optional[Tuple[str, ...]] = None,
        forwarded: Optional[bytes] = None,
        reply: Optional[bytes] = None,
    ) -> None:
        """Record ``answer`` as the most recently used record, with the
        log entries and counter increments made since ``mark``."""
        log_mark, before = mark
        deltas: List[Tuple[str, int]] = []
        for counter, value in zip(self._CACHE_COUNTERS, before):
            delta = getattr(self, counter) - value
            if delta:
                deltas.append((counter, delta))
        cache = self._response_cache
        cache.pop(key, None)
        if len(cache) >= self._CACHE_LIMIT:
            cache.popitem(last=False)
        cache[key] = _CachedResponse(
            epoch=epoch,
            wire=answer,
            log_entries=[
                e if e.client is None else QueryLogEntry(e.name, e.rrtype, e.rcode, e.answered_from)
                for e in self.query_log[log_mark:]
            ],
            counter_deltas=deltas,
            labels=labels,
            forwarded=forwarded,
            reply=reply,
        )

    def _replay(self, cached: _CachedResponse, wire: bytes, client: Optional[object]) -> bytes:
        """The recorded answer with ``wire``'s ident, after replaying the
        recorded log entries (for ``client``) and counter increments."""
        log = self.query_log
        if client is None:
            log.extend(cached.log_entries)
        else:
            for e in cached.log_entries:
                log.append(QueryLogEntry(e.name, e.rrtype, e.rcode, e.answered_from, client))
        for counter, delta in cached.counter_deltas:
            setattr(self, counter, getattr(self, counter) + delta)
        answer = cached.wire
        if answer[:2] == wire[:2]:
            return answer
        return bytes(wire[:2]) + answer[2:]

    def _cache_epoch(self) -> _Epoch:
        """Validity token compared on every hit: the zone versions,
        memoized until a zone changes."""
        epoch = self._epoch
        if epoch is None:
            epoch = self._epoch = tuple(zone.version for zone in self._zones)
        return epoch

    def respond(self, query: DnsMessage, client: Optional[object] = None) -> DnsMessage:
        """Typed-message counterpart of :meth:`handle_query`."""
        question = query.question
        if question.rrclass not in (RRClass.IN, RRClass.ANY):
            return query.response(rcode=RCode.REFUSED, recursion_available=False)
        zone = self.zone_for(question.name)
        if zone is None:
            self._log(question, RCode.REFUSED, "refused", client)
            return query.response(rcode=RCode.REFUSED, recursion_available=False)
        result = zone.lookup(question.name, question.rrtype)
        authorities: List[ResourceRecord] = []
        if not result.records:
            authorities = [zone.negative_soa()]
        self._log(question, result.rcode, "zone", client)
        return query.response(
            answers=result.records,
            rcode=result.rcode,
            authoritative=True,
            authorities=authorities,
            recursion_available=False,
        )

    def _log(self, question, rcode: int, source: str, client) -> None:
        self.query_log.append(
            QueryLogEntry(question.name, question.rrtype, rcode, source, client)
        )


def _decode_reply(raw: Optional[bytes]) -> Optional[DnsMessage]:
    """The upstream's reply, or ``None`` when there was none or it does
    not decode."""
    if raw is None:
        return None
    try:
        return DnsMessage.decode(raw)
    except ValueError:
        return None


class ForwardingDnsServer(DnsServer):
    """A server that forwards queries it is not authoritative for.

    ``upstream`` is a callable ``(wire) -> Optional[wire]`` — typically
    another server's :meth:`DnsServer.handle_query` or a simulated
    network exchange.  This is dnsmasq's ``server=...`` behaviour, the
    second of the paper's two configuration lines.

    The upstream is asked exactly once per forwarded query, cache hit
    or not, with the bytes ``query.encode()`` gives.  A forwarded
    answer is recorded by the upstream rule (see :class:`DnsServer`):
    it replays only when the upstream's reply matches the recorded one;
    otherwise the answer is built from the reply just received.
    Subclasses choose what is forwarded (:meth:`_forwards`) and what is
    made of a reply (:meth:`_from_reply`).
    """

    _CACHE_COUNTERS = ("forwarded",)

    def __init__(
        self,
        upstream: Callable[[bytes], Optional[bytes]],
        zones: Sequence[Zone] = (),
        name: str = "forwarder",
    ) -> None:
        super().__init__(zones, name)
        self._upstream = upstream
        self.forwarded = 0

    def _forwards(self, question: DnsQuestion) -> bool:
        """Whether ``question`` goes upstream.  Names in this server's own
        zones are answered, and cached by the zone rule, here."""
        return self.zone_for(question.name) is None

    def respond(self, query: DnsMessage, client: Optional[object] = None) -> DnsMessage:
        if not self._forwards(query.question):
            return super().respond(query, client)
        return self._relay(query, _decode_reply(self._upstream(query.encode())), client)

    def _record(self, key: bytes, query: DnsMessage, client: Optional[object]) -> bytes:
        if not self._forwards(query.question):
            return super()._record(key, query, client)
        epoch = self._cache_epoch()
        sent = query.encode()
        return self._record_exchange(key, query, sent, self._upstream(sent), epoch, client)

    def _hit(self, cached: _CachedResponse, wire: bytes, client: Optional[object]) -> bytes:
        if cached.forwarded is None:
            return super()._hit(cached, wire, client)
        # The bytes query.encode() would give: the recorded query with this ident.
        sent = bytes(wire[:2]) + cached.forwarded
        raw = self._upstream(sent)
        if raw is not None and raw[2:] == cached.reply and cached.epoch == self._cache_epoch():
            return self._replay(cached, wire, client)
        # A new reply (or a zone write mid-exchange): build the answer
        # from the reply in hand rather than asking the upstream again.
        query = DnsMessage.decode(wire)
        return self._record_exchange(bytes(wire[2:]), query, sent, raw, cached.epoch, client)

    def _record_exchange(
        self,
        key: bytes,
        query: DnsMessage,
        sent: bytes,
        raw: Optional[bytes],
        epoch: _Epoch,
        client: Optional[object],
    ) -> bytes:
        """The answer to ``query`` from the upstream's reply ``raw`` to
        ``sent``.  It is recorded under ``key`` when the reply decoded
        and ``epoch``, under which the query was forwarded, still holds.

        The upstream may have called back into this server, so the log
        and counters are marked only now, after the exchange returned."""
        reply = _decode_reply(raw)
        mark = self._mark()
        answer = self._relay(query, reply, client).encode()
        if raw is not None and reply is not None and epoch == self._cache_epoch():
            self._store(key, epoch, answer, mark, forwarded=sent[2:], reply=bytes(raw[2:]))
        return answer

    def _relay(
        self, query: DnsMessage, reply: Optional[DnsMessage], client: Optional[object]
    ) -> DnsMessage:
        """The answer to forwarded ``query``: SERVFAIL without a reply."""
        self.forwarded += 1
        if reply is None:
            self._log(query.question, RCode.SERVFAIL, "forwarded", client)
            return query.response(rcode=RCode.SERVFAIL)
        return self._from_reply(query, reply, client)

    def _from_reply(
        self, query: DnsMessage, reply: DnsMessage, client: Optional[object]
    ) -> DnsMessage:
        """What is made of the upstream's decoded ``reply``: here, its
        rcode, answers and authorities, passed through."""
        self._log(query.question, reply.rcode, "forwarded", client)
        return query.response(
            answers=reply.answers,
            rcode=reply.rcode,
            authorities=reply.authorities,
        )
