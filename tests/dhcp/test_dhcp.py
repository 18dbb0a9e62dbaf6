"""DHCPv4: options (incl. RFC 8925 option 108), message codec, server
DORA behaviour, client state machine and snooping."""

import pytest

from repro.dhcp.client import DhcpClient, DhcpClientState
from repro.dhcp.message import DHCP_CLIENT_PORT, DHCP_SERVER_PORT, DhcpMessage
from repro.dhcp.options import (
    decode_options,
    DhcpMessageType,
    DhcpOptionCode,
    encode_options,
    MIN_V6ONLY_WAIT,
    pack_addresses,
    pack_v6only_wait,
    unpack_addresses,
    unpack_v6only_wait,
    V6ONLY_WAIT_DEFAULT,
)
from repro.dhcp.server import DhcpPool, DhcpServer
from repro.dhcp.snooping import DhcpSnooper, SnoopAction
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.ipv4 import IPProto, IPv4Packet
from repro.net.udp import UdpDatagram

MAC = MacAddress.parse("00:00:59:aa:c6:ab")
NET = IPv4Network("192.168.12.0/24")
SERVER_ID = IPv4Address("192.168.12.250")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_server(clock=None, v6only_wait=None, pool_last="192.168.12.99", **kw):
    return DhcpServer(
        pool=DhcpPool(NET, IPv4Address("192.168.12.50"), IPv4Address(pool_last)),
        server_id=SERVER_ID,
        clock=clock or FakeClock(),
        routers=[IPv4Address("192.168.12.1")],
        dns_servers=[IPv4Address("192.168.12.252")],
        domain_name="rfc8925.com",
        v6only_wait=v6only_wait,
        **kw,
    )


class TestOptions:
    def test_round_trip(self):
        blob = encode_options([(53, b"\x01"), (55, bytes([1, 3, 6]))])
        decoded = decode_options(blob)
        assert decoded == {53: b"\x01", 55: bytes([1, 3, 6])}

    def test_end_terminates(self):
        blob = encode_options([(53, b"\x01")]) + b"\x35\x01\x05"  # after END
        assert decode_options(blob) == {53: b"\x01"}

    def test_pad_skipped(self):
        assert decode_options(b"\x00\x00\x35\x01\x02\xff") == {53: b"\x02"}

    def test_truncated_option(self):
        with pytest.raises(ValueError):
            decode_options(b"\x35\x05\x01")

    def test_address_packing(self):
        addrs = [IPv4Address("192.168.12.251"), IPv4Address("192.168.12.252")]
        assert unpack_addresses(pack_addresses(addrs)) == addrs

    def test_v6only_wait_floor(self):
        # RFC 8925 §3.2: values below MIN are raised to MIN.
        assert unpack_v6only_wait(pack_v6only_wait(10)) == MIN_V6ONLY_WAIT
        assert unpack_v6only_wait(pack_v6only_wait(0)) == V6ONLY_WAIT_DEFAULT
        assert unpack_v6only_wait(pack_v6only_wait(1800)) == 1800

    def test_v6only_wrong_length(self):
        with pytest.raises(ValueError):
            unpack_v6only_wait(b"\x00\x01")


class TestMessage:
    def test_discover_round_trip(self):
        message = DhcpMessage.discover(0xDEADBEEF, MAC, request_option_108=True)
        decoded = DhcpMessage.decode(message.encode())
        assert decoded.xid == 0xDEADBEEF
        assert decoded.chaddr == MAC
        assert decoded.message_type == DhcpMessageType.DISCOVER
        assert decoded.requests_ipv6_only
        assert decoded.broadcast

    def test_discover_without_108(self):
        message = DhcpMessage.discover(1, MAC)
        assert not DhcpMessage.decode(message.encode()).requests_ipv6_only

    def test_magic_cookie_enforced(self):
        raw = bytearray(DhcpMessage.discover(1, MAC).encode())
        raw[236] ^= 0xFF
        with pytest.raises(ValueError, match="cookie"):
            DhcpMessage.decode(bytes(raw))

    def test_reply_builder(self):
        discover = DhcpMessage.discover(7, MAC)
        offer = discover.reply(
            DhcpMessageType.OFFER, IPv4Address("192.168.12.50"), SERVER_ID
        )
        decoded = DhcpMessage.decode(offer.encode())
        assert decoded.op == 2
        assert decoded.yiaddr == IPv4Address("192.168.12.50")
        assert decoded.server_identifier == SERVER_ID

    def test_typed_accessors(self):
        message = DhcpMessage.discover(7, MAC).reply(
            DhcpMessageType.ACK,
            IPv4Address("192.168.12.50"),
            SERVER_ID,
            options={
                DhcpOptionCode.SUBNET_MASK: IPv4Address("255.255.255.0").packed,
                DhcpOptionCode.ROUTER: IPv4Address("192.168.12.1").packed,
                DhcpOptionCode.DNS_SERVERS: IPv4Address("192.168.12.252").packed,
                DhcpOptionCode.LEASE_TIME: (3600).to_bytes(4, "big"),
                DhcpOptionCode.DOMAIN_NAME: b"rfc8925.com",
            },
        )
        decoded = DhcpMessage.decode(message.encode())
        assert decoded.subnet_mask == IPv4Address("255.255.255.0")
        assert decoded.routers == [IPv4Address("192.168.12.1")]
        assert decoded.dns_servers == [IPv4Address("192.168.12.252")]
        assert decoded.lease_time == 3600
        assert decoded.domain_name == "rfc8925.com"


class TestServer:
    def test_dora_plain_client(self):
        server = make_server()
        discover = DhcpMessage.discover(1, MAC)
        offer = server.respond(discover)
        assert offer.message_type == DhcpMessageType.OFFER
        assert offer.yiaddr in NET
        request = DhcpMessage.request(1, MAC, offer.yiaddr, SERVER_ID)
        ack = server.respond(request)
        assert ack.message_type == DhcpMessageType.ACK
        assert ack.yiaddr == offer.yiaddr
        assert ack.dns_servers == [IPv4Address("192.168.12.252")]
        assert server.active_lease_count == 1

    def test_option_108_grant(self):
        server = make_server(v6only_wait=300)
        discover = DhcpMessage.discover(1, MAC, request_option_108=True)
        offer = server.respond(discover)
        assert offer.v6only_wait == 300
        assert offer.yiaddr == IPv4Address("0.0.0.0")
        request = DhcpMessage.request(1, MAC, offer.yiaddr, SERVER_ID, request_option_108=True)
        ack = server.respond(request)
        assert ack.v6only_wait == 300
        assert server.option_108_grants == 1

    def test_option_108_grants_keep_no_lease(self):
        # A v6-only client holds no address and never RELEASEs, so a
        # record per grant would only pile up.
        server = make_server(v6only_wait=300)
        for number in range(25):
            mac = MacAddress(0x020000000200 + number)
            offer = server.respond(DhcpMessage.discover(number, mac, request_option_108=True))
            request = DhcpMessage.request(
                number, mac, offer.yiaddr, SERVER_ID, request_option_108=True
            )
            assert server.respond(request).v6only_wait == 300
        assert server.leases == {}
        assert server.option_108_grants == 25
        assert server.active_lease_count == 0

    def test_option_108_grant_frees_an_earlier_pool_lease(self):
        server = make_server(v6only_wait=300)
        offer = server.respond(DhcpMessage.discover(1, MAC))
        server.respond(DhcpMessage.request(1, MAC, offer.yiaddr, SERVER_ID))
        assert server.active_lease_count == 1
        server.respond(
            DhcpMessage.request(2, MAC, IPv4Address("0.0.0.0"), SERVER_ID, request_option_108=True)
        )
        assert server.leases == {}
        other = server.respond(DhcpMessage.discover(3, MacAddress(0x02BB)))
        assert other.yiaddr == offer.yiaddr

    def test_option_108_not_granted_to_non_requesters(self):
        # RFC 8925 §3.3: only clients that listed 108 in their PRL get it.
        server = make_server(v6only_wait=300)
        offer = server.respond(DhcpMessage.discover(1, MAC))
        assert offer.v6only_wait is None
        assert offer.yiaddr != IPv4Address("0.0.0.0")

    def test_gateway_style_server_ignores_108(self):
        server = make_server(v6only_wait=None)
        offer = server.respond(DhcpMessage.discover(1, MAC, request_option_108=True))
        assert offer.v6only_wait is None  # the 5G gateway behaviour

    def test_same_mac_same_address(self):
        server = make_server()
        offer1 = server.respond(DhcpMessage.discover(1, MAC))
        server.respond(DhcpMessage.request(1, MAC, offer1.yiaddr, SERVER_ID))
        offer2 = server.respond(DhcpMessage.discover(2, MAC))
        assert offer2.yiaddr == offer1.yiaddr

    def test_pool_exhaustion_silent(self):
        server = make_server(pool_last="192.168.12.51")  # 2 addresses
        for i in range(2):
            mac = MacAddress(0x020000000100 + i)
            offer = server.respond(DhcpMessage.discover(i, mac))
            server.respond(DhcpMessage.request(i, mac, offer.yiaddr, SERVER_ID))
        assert server.respond(DhcpMessage.discover(9, MacAddress(0x09))) is None

    def test_lease_expiry_frees_address(self):
        clock = FakeClock()
        server = make_server(clock=clock, pool_last="192.168.12.50", lease_time=100)
        offer = server.respond(DhcpMessage.discover(1, MAC))
        server.respond(DhcpMessage.request(1, MAC, offer.yiaddr, SERVER_ID))
        clock.now = 101.0
        other = MacAddress(0x02AA)
        offer2 = server.respond(DhcpMessage.discover(2, other))
        assert offer2.yiaddr == offer.yiaddr

    def test_nak_for_foreign_address(self):
        server = make_server()
        request = DhcpMessage.request(1, MAC, IPv4Address("10.0.0.5"), SERVER_ID)
        assert server.respond(request).message_type == DhcpMessageType.NAK

    def test_request_for_other_server_ignored(self):
        server = make_server()
        request = DhcpMessage.request(
            1, MAC, IPv4Address("192.168.12.60"), IPv4Address("192.168.12.1")
        )
        assert server.respond(request) is None

    def test_release_clears_lease(self):
        server = make_server()
        offer = server.respond(DhcpMessage.discover(1, MAC))
        server.respond(DhcpMessage.request(1, MAC, offer.yiaddr, SERVER_ID))
        release = DhcpMessage(
            op=1,
            xid=2,
            chaddr=MAC,
            ciaddr=offer.yiaddr,
            options={DhcpOptionCode.MESSAGE_TYPE: bytes([DhcpMessageType.RELEASE])},
        )
        assert server.respond(release) is None
        assert server.active_lease_count == 0

    def test_set_dns_servers_runtime(self):
        server = make_server()
        server.set_dns_servers([IPv4Address("192.168.12.251")])
        offer = server.respond(DhcpMessage.discover(1, MAC))
        assert offer.dns_servers == [IPv4Address("192.168.12.251")]

    def test_malformed_message_dropped(self):
        assert make_server().handle_message(b"short") is None


class TestClient:
    def _broadcast_via(self, server):
        def broadcast(wire):
            reply = server.handle_message(wire)
            return [reply] if reply else []

        return broadcast

    def test_plain_client_binds(self):
        server = make_server()
        client = DhcpClient(MAC, supports_option_108=False, xid_source=iter(range(1, 100)).__next__)
        result = client.run_exchange(self._broadcast_via(server))
        assert result.state is DhcpClientState.BOUND
        assert result.ipv4_configured
        assert result.routers == [IPv4Address("192.168.12.1")]
        assert result.domain_name == "rfc8925.com"

    def test_rfc8925_client_goes_v6only(self):
        server = make_server(v6only_wait=600)
        client = DhcpClient(MAC, supports_option_108=True, xid_source=iter(range(1, 100)).__next__)
        result = client.run_exchange(self._broadcast_via(server))
        assert result.state is DhcpClientState.V6ONLY
        assert result.v6only_wait == 600
        assert result.ipv6_only and not result.ipv4_configured

    def test_rfc8925_client_on_legacy_server_binds_normally(self):
        server = make_server(v6only_wait=None)
        client = DhcpClient(MAC, supports_option_108=True, xid_source=iter(range(1, 100)).__next__)
        result = client.run_exchange(self._broadcast_via(server))
        assert result.state is DhcpClientState.BOUND

    def test_no_offers_fails(self):
        client = DhcpClient(MAC, False, xid_source=iter(range(1, 100)).__next__)
        result = client.run_exchange(lambda wire: [])
        assert result.state is DhcpClientState.FAILED

    def test_wrong_xid_replies_ignored(self):
        server = make_server()

        def broadcast(wire):
            reply = server.handle_message(wire)
            if reply is None:
                return []
            # Corrupt the xid.
            return [reply[:4] + b"\xde\xad\xbe\xef" + reply[8:]]

        client = DhcpClient(MAC, False, xid_source=iter(range(1, 100)).__next__)
        assert client.run_exchange(broadcast).state is DhcpClientState.FAILED

    def test_first_offer_wins(self):
        fast = make_server()
        slow = DhcpServer(
            pool=DhcpPool(NET, IPv4Address("192.168.12.200"), IPv4Address("192.168.12.210")),
            server_id=IPv4Address("192.168.12.1"),
            clock=FakeClock(),
        )

        def broadcast(wire):
            return [r for r in (fast.handle_message(wire), slow.handle_message(wire)) if r]

        client = DhcpClient(MAC, False, xid_source=iter(range(1, 100)).__next__)
        result = client.run_exchange(broadcast)
        assert result.state is DhcpClientState.BOUND
        assert result.server_id == SERVER_ID  # the first responder


class TestSnooping:
    def _dhcp_frame(self, src_port):
        datagram = UdpDatagram(src_port, DHCP_CLIENT_PORT if src_port == 67 else DHCP_SERVER_PORT, b"x")
        src, dst = IPv4Address("192.168.12.1"), IPv4Address("255.255.255.255")
        packet = IPv4Packet(src=src, dst=dst, proto=IPProto.UDP, payload=datagram.encode(src, dst))
        return EthernetFrame(
            MacAddress((1 << 48) - 1), MacAddress(0x02), EtherType.IPV4, packet.encode()
        )

    def test_untrusted_server_traffic_dropped(self):
        snooper = DhcpSnooper(enabled=True, trusted_ports={"p-pi"})
        frame = self._dhcp_frame(67)
        assert snooper.inspect("p-gateway", frame) is SnoopAction.DROP
        assert snooper.dropped == 1

    def test_trusted_port_passes(self):
        snooper = DhcpSnooper(enabled=True, trusted_ports={"p-pi"})
        assert snooper.inspect("p-pi", self._dhcp_frame(67)) is SnoopAction.FORWARD

    def test_client_traffic_passes_untrusted(self):
        snooper = DhcpSnooper(enabled=True)
        assert snooper.inspect("p-any", self._dhcp_frame(68)) is SnoopAction.FORWARD

    def test_disabled_passes_everything(self):
        snooper = DhcpSnooper(enabled=False)
        assert snooper.inspect("p-gateway", self._dhcp_frame(67)) is SnoopAction.FORWARD

    def test_non_ip_traffic_passes(self):
        snooper = DhcpSnooper(enabled=True)
        frame = EthernetFrame(MacAddress(1), MacAddress(2), EtherType.ARP, b"\x00" * 28)
        assert snooper.inspect("p-x", frame) is SnoopAction.FORWARD

    def test_trust_untrust(self):
        snooper = DhcpSnooper(enabled=True)
        snooper.trust("p-a")
        assert snooper.inspect("p-a", self._dhcp_frame(67)) is SnoopAction.FORWARD
        snooper.untrust("p-a")
        assert snooper.inspect("p-a", self._dhcp_frame(67)) is SnoopAction.DROP
