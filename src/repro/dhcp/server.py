"""The DHCPv4 server: address pools, leases and the DORA exchange,
with RFC 8925 option 108 grants.

Two server personalities exist in the testbed:

- the Raspberry Pi server (option 108 enabled, resolver pointed at the
  poisoned DNS64) — instances of this class with ``v6only_wait`` set;
- the 5G gateway's built-in server (option 108 *not* supported, cannot
  be disabled) — an instance with ``v6only_wait=None``, blocked at the
  switch by :class:`repro.dhcp.snooping.DhcpSnooper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.dhcp.message import DhcpMessage
from repro.dhcp.options import DhcpMessageType, DhcpOptionCode, pack_addresses, pack_v6only_wait
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress

__all__ = ["DhcpPool", "Lease", "DhcpServer"]


@dataclass
class Lease:
    """A pool address held by one client until ``expires_at``."""

    address: IPv4Address
    mac: MacAddress
    expires_at: float


@dataclass
class DhcpPool:
    """An address pool within one subnet."""

    network: IPv4Network
    first: IPv4Address
    last: IPv4Address

    def __post_init__(self) -> None:
        if self.first not in self.network or self.last not in self.network:
            raise ValueError("pool bounds outside subnet")
        if int(self.first) > int(self.last):
            raise ValueError("pool first address above last")

    def addresses(self) -> Iterator[IPv4Address]:
        for value in range(int(self.first), int(self.last) + 1):
            yield IPv4Address(value)

    @property
    def size(self) -> int:
        return int(self.last) - int(self.first) + 1


class DhcpServer:
    """A DHCPv4 server bound (by the simulator) to UDP port 67.

    Parameters
    ----------
    v6only_wait:
        When not ``None``, clients whose Parameter Request List includes
        option 108 receive it back with this V6ONLY_WAIT and are *not*
        allocated a pool address beyond the 0.0.0.0 convention of
        RFC 8925 §4 — matching the Pi server.  ``None`` models the
        gateway's option-108-ignorant server.
    """

    def __init__(
        self,
        pool: DhcpPool,
        server_id: IPv4Address,
        clock: Callable[[], float],
        routers: Sequence[IPv4Address] = (),
        dns_servers: Sequence[IPv4Address] = (),
        domain_name: Optional[str] = None,
        lease_time: int = 3600,
        v6only_wait: Optional[int] = None,
        name: str = "dhcp",
    ) -> None:
        self.name = name
        self.pool = pool
        self.server_id = server_id
        self._clock = clock
        self.routers = list(routers)
        self.dns_servers = list(dns_servers)
        self.domain_name = domain_name
        self.lease_time = lease_time
        self.v6only_wait = v6only_wait
        self.leases: Dict[MacAddress, Lease] = {}
        self.offers_made = 0
        self.acks_sent = 0
        self.option_108_grants = 0

    # -- configuration mutation (used by the rollback playbooks) ------------

    def set_dns_servers(self, servers: Sequence[IPv4Address]) -> None:
        """Repoint the advertised resolver — the paper's one-scope change
        that moves clients onto (or off) the poisoned DNS server."""
        self.dns_servers = list(servers)

    # -- message handling ------------------------------------------------------

    def handle_message(self, wire: bytes) -> Optional[bytes]:
        """Process one client datagram; returns the reply or ``None``."""
        try:
            message = DhcpMessage.decode(wire)
        except ValueError:
            return None
        if message.op != 1:
            return None
        reply = self.respond(message)
        return reply.encode() if reply is not None else None

    def respond(self, message: DhcpMessage) -> Optional[DhcpMessage]:
        mtype = message.message_type
        if mtype == DhcpMessageType.DISCOVER:
            return self._offer(message)
        if mtype == DhcpMessageType.REQUEST:
            return self._ack_or_nak(message)
        if mtype == DhcpMessageType.RELEASE:
            self.leases.pop(message.chaddr, None)
            return None
        if mtype == DhcpMessageType.DECLINE:
            # Address conflict reported; retire the lease.
            self.leases.pop(message.chaddr, None)
            return None
        return None

    # -- DORA ---------------------------------------------------------------

    def _offer(self, message: DhcpMessage) -> Optional[DhcpMessage]:
        if self._grants_v6only(message):
            # RFC 8925 §3.3: the server MAY return 0.0.0.0 as the offered
            # address when granting IPv6-Only-Preferred.
            self.offers_made += 1
            return message.reply(
                DhcpMessageType.OFFER,
                IPv4Address("0.0.0.0"),
                self.server_id,
                self._common_options(message, v6only=True),
            )
        address = self._allocate(message.chaddr, message.requested_ip)
        if address is None:
            return None  # pool exhausted: stay silent, client retries
        self.offers_made += 1
        return message.reply(
            DhcpMessageType.OFFER, address, self.server_id, self._common_options(message)
        )

    def _ack_or_nak(self, message: DhcpMessage) -> Optional[DhcpMessage]:
        server_id = message.server_identifier
        if server_id is not None and server_id != self.server_id:
            return None  # client chose another server
        if self._grants_v6only(message):
            self.acks_sent += 1
            self.option_108_grants += 1
            # The grant holds no address, so there is no lease to keep
            # (and the client, with no IPv4 config, never RELEASEs one);
            # an address this client held before goes back to the pool.
            self.leases.pop(message.chaddr, None)
            return message.reply(
                DhcpMessageType.ACK,
                IPv4Address("0.0.0.0"),
                self.server_id,
                self._common_options(message, v6only=True),
            )
        requested = message.requested_ip or message.ciaddr
        address = self._allocate(message.chaddr, requested)
        if address is None or (requested not in (None, IPv4Address("0.0.0.0")) and address != requested):
            return message.reply(
                DhcpMessageType.NAK, IPv4Address("0.0.0.0"), self.server_id
            )
        self.leases[message.chaddr] = Lease(
            address, message.chaddr, self._clock() + self.lease_time
        )
        self.acks_sent += 1
        return message.reply(
            DhcpMessageType.ACK, address, self.server_id, self._common_options(message)
        )

    # -- helpers ---------------------------------------------------------------

    def _grants_v6only(self, message: DhcpMessage) -> bool:
        return self.v6only_wait is not None and message.requests_ipv6_only

    def _common_options(self, message: DhcpMessage, v6only: bool = False) -> Dict[int, bytes]:
        opts: Dict[int, bytes] = {
            DhcpOptionCode.SUBNET_MASK: self.pool.network.netmask.packed,
            DhcpOptionCode.LEASE_TIME: self.lease_time.to_bytes(4, "big"),
        }
        if self.routers:
            opts[DhcpOptionCode.ROUTER] = pack_addresses(self.routers)
        if self.dns_servers:
            opts[DhcpOptionCode.DNS_SERVERS] = pack_addresses(self.dns_servers)
        if self.domain_name:
            opts[DhcpOptionCode.DOMAIN_NAME] = self.domain_name.encode("ascii")
        if v6only:
            opts[DhcpOptionCode.IPV6_ONLY_PREFERRED] = pack_v6only_wait(self.v6only_wait)
        return opts

    def _allocate(
        self, mac: MacAddress, preferred: Optional[IPv4Address]
    ) -> Optional[IPv4Address]:
        now = self._clock()
        existing = self.leases.get(mac)
        if existing is not None and existing.expires_at > now:
            return existing.address
        in_use = {lease.address for lease in self.leases.values() if lease.expires_at > now}
        if (
            preferred is not None
            and preferred != IPv4Address("0.0.0.0")
            and preferred not in in_use
            and self.pool.network.network_address < preferred < self.pool.network.broadcast_address
            and int(self.pool.first) <= int(preferred) <= int(self.pool.last)
        ):
            return preferred
        for candidate in self.pool.addresses():
            if candidate not in in_use and candidate != self.server_id:
                return candidate
        return None

    @property
    def active_lease_count(self) -> int:
        now = self._clock()
        return sum(1 for l in self.leases.values() if l.expires_at > now)
