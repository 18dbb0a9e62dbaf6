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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._compat import slotted_dataclass
from repro.dns.message import DnsMessage, DnsQuestion, ResourceRecord
from repro.dns.name import DnsName
from repro.dns.rdata import RCode, RRClass
from repro.dns.zone import Zone

__all__ = ["DnsServer", "ForwardingDnsServer", "QueryLogEntry"]


@dataclass
class QueryLogEntry:
    """One served query — the raw material for the paper's client counting."""

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
    ``None`` in both."""

    epoch: object
    wire: bytes
    log_entries: List[QueryLogEntry]
    counter_deltas: List[Tuple[str, int]]
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
    patched into the template on each hit.  Every record carries a
    cache epoch (zone versions + :attr:`policy_epoch`, plus a
    subclass's config), and one of two validity rules applies:

    - the *zone* rule: an answer built from this server's own data holds
      while the epoch does — it is built once per policy change, not
      once per query;
    - the *upstream* rule (:class:`ForwardingDnsServer`): an answer
      built from an upstream exchange also depends on the upstream's
      reply, so a hit still sends the upstream the same query and
      replays only when the reply matches the recorded one byte for
      byte.

    Query-log entries and subclass counters (declared in
    ``_CACHE_COUNTERS``) recorded with the answer are replayed, so
    observable bookkeeping is identical with and without the cache.
    :attr:`cache_hits` and :attr:`cache_misses` count the zone rule only.
    """

    #: Counter attribute names whose increments must replay on cache hits.
    _CACHE_COUNTERS: Sequence[str] = ()

    _CACHE_LIMIT = 4096

    def __init__(self, zones: Sequence[Zone] = (), name: str = "dns") -> None:
        self.name = name
        self._zones: List[Zone] = list(zones)
        self.query_log: List[QueryLogEntry] = []
        self._response_cache: Dict[bytes, _CachedResponse] = {}
        #: Bump (via :meth:`bump_policy_epoch`) whenever out-of-band
        #: policy affecting responses changes.
        self.policy_epoch = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def add_zone(self, zone: Zone) -> None:
        self._zones.append(zone)

    def bump_policy_epoch(self) -> None:
        """Invalidate all cached responses after a policy change."""
        self.policy_epoch += 1

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
        cached = self._response_cache.get(key)
        if cached is not None and cached.epoch == self._cache_epoch():
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
        self._store(key, epoch, answer, mark)
        return answer

    def _mark(self) -> Tuple[int, List[int]]:
        """Where the query log and the cached counters stand now."""
        return len(self.query_log), [getattr(self, counter) for counter in self._CACHE_COUNTERS]

    def _store(
        self,
        key: bytes,
        epoch: object,
        answer: bytes,
        mark: Tuple[int, List[int]],
        forwarded: Optional[bytes] = None,
        reply: Optional[bytes] = None,
    ) -> None:
        """Record ``answer`` with the log entries and counter increments
        made since ``mark``."""
        log_mark, before = mark
        deltas: List[Tuple[str, int]] = []
        for counter, value in zip(self._CACHE_COUNTERS, before):
            delta = getattr(self, counter) - value
            if delta:
                deltas.append((counter, delta))
        if len(self._response_cache) >= self._CACHE_LIMIT:
            self._response_cache.clear()
        self._response_cache[key] = _CachedResponse(
            epoch=epoch,
            wire=answer,
            log_entries=[
                QueryLogEntry(e.name, e.rrtype, e.rcode, e.answered_from, None)
                for e in self.query_log[log_mark:]
            ],
            counter_deltas=deltas,
            forwarded=forwarded,
            reply=reply,
        )

    def _replay(self, cached: _CachedResponse, wire: bytes, client: Optional[object]) -> bytes:
        """The recorded answer with ``wire``'s ident, after replaying the
        recorded log entries (for ``client``) and counter increments."""
        for entry in cached.log_entries:
            self.query_log.append(
                QueryLogEntry(entry.name, entry.rrtype, entry.rcode, entry.answered_from, client)
            )
        for counter, delta in cached.counter_deltas:
            setattr(self, counter, getattr(self, counter) + delta)
        answer = cached.wire
        if answer[:2] == wire[:2]:
            return answer
        return bytes(wire[:2]) + answer[2:]

    def _cache_epoch(self) -> object:
        """Validity token compared on every hit; any change to zone data
        or policy yields a different token and forces a rebuild."""
        return (self.policy_epoch, tuple(zone.version for zone in self._zones))

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
        if not result.answers or result.rcode == RCode.NXDOMAIN:
            authorities = [zone.negative_soa()]
        self._log(question, result.rcode, "zone", client)
        return query.response(
            answers=result.answers,
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
        # A new reply (or a policy change mid-exchange): build the answer
        # from the reply in hand rather than asking the upstream again.
        query = DnsMessage.decode(wire)
        return self._record_exchange(bytes(wire[2:]), query, sent, raw, cached.epoch, client)

    def _record_exchange(
        self,
        key: bytes,
        query: DnsMessage,
        sent: bytes,
        raw: Optional[bytes],
        epoch: object,
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
            self._store(key, epoch, answer, mark, sent[2:], bytes(raw[2:]))
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
