"""SLAAC state, RA daemons and RFC 6724 address selection."""

import dataclasses
import random

import pytest

from repro.nd.addrsel import (
    CandidateAddress,
    order_destinations,
    precedence_and_label,
    select_source_address,
)
from repro.nd.ra import RaDaemon, RaDaemonConfig
from repro.nd.slaac import SlaacState
from repro.net.addresses import IPv4Address, IPv6Address, IPv6Network, MacAddress
from repro.net.icmpv6 import (
    LinkLayerAddressOption,
    NdOptionType,
    PrefixInformation,
    RdnssOption,
    RouterAdvertisement,
    RouterPreference,
)

MAC = MacAddress.parse("00:00:59:aa:c6:ab")
GW_LL = IPv6Address("fe80::50:ff:fe00:1")
SW_LL = IPv6Address("fe80::ff:fe00:1")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def gateway_ra(prefix="2607:fb90:9bda:a425::/64", lifetime=1800):
    return RouterAdvertisement(
        router_lifetime=lifetime,
        preference=RouterPreference.MEDIUM,
        options=(
            PrefixInformation(IPv6Network(prefix)),
            RdnssOption((IPv6Address("fd00:976a::9"), IPv6Address("fd00:976a::10"))),
        ),
    )


def switch_ra():
    return RouterAdvertisement(
        router_lifetime=0,  # not a default router
        preference=RouterPreference.LOW,
        options=(
            PrefixInformation(IPv6Network("fd00:976a::/64")),
            RdnssOption((IPv6Address("fd00:976a::9"),)),
        ),
    )


class TestSlaac:
    def test_gateway_ra_configures_gua(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        assert IPv6Address("2607:fb90:9bda:a425:200:59ff:feaa:c6ab") in state.global_addresses()
        assert state.default_router().address == GW_LL
        assert state.rdnss == [IPv6Address("fd00:976a::9"), IPv6Address("fd00:976a::10")]

    def test_switch_ra_adds_ula_without_default_route(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(switch_ra(), SW_LL)
        assert IPv6Address("fd00:976a::200:59ff:feaa:c6ab") in state.global_addresses()
        assert state.default_router() is None  # lifetime 0

    def test_both_ras_testbed_state(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        state.process_ra(switch_ra(), SW_LL)
        assert len(state.global_addresses()) == 2
        assert state.default_router().address == GW_LL
        assert state.has_global_connectivity

    def test_router_preference_ordering(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        high_ra = RouterAdvertisement(preference=RouterPreference.HIGH, router_lifetime=600)
        state.process_ra(gateway_ra(), GW_LL)  # MEDIUM
        state.process_ra(high_ra, SW_LL)
        assert state.default_router().address == SW_LL

    def test_router_lifetime_expiry(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(lifetime=100), GW_LL)
        clock.now = 101.0
        assert state.default_router() is None

    def test_prefix_lifetime_expiry(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        ra = RouterAdvertisement(
            options=(PrefixInformation(IPv6Network("2001:db8::/64"), valid_lifetime=50),)
        )
        state.process_ra(ra, GW_LL)
        assert state.global_addresses()
        clock.now = 51.0
        assert not state.global_addresses()

    def test_zero_lifetime_withdraws_router(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        state.process_ra(gateway_ra(lifetime=0), GW_LL)
        assert state.default_router() is None

    def test_zero_valid_lifetime_withdraws_prefix(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        withdraw = RouterAdvertisement(
            options=(
                PrefixInformation(IPv6Network("2607:fb90:9bda:a425::/64"), valid_lifetime=0),
            )
        )
        state.process_ra(withdraw, GW_LL)
        assert not state.global_addresses()

    def test_non_64_prefix_not_autoconfigured(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        ra = RouterAdvertisement(options=(PrefixInformation(IPv6Network("2001:db8::/56")),))
        state.process_ra(ra, GW_LL)
        assert not state.global_addresses()

    def test_on_link_determination(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        assert state.on_link(IPv6Address("2607:fb90:9bda:a425::1"))
        assert state.on_link(IPv6Address("fe80::1"))
        assert not state.on_link(IPv6Address("2001:4810:0:3::71"))

    def test_rdnss_deduplicated(self):
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        state.process_ra(gateway_ra(), GW_LL)
        state.process_ra(switch_ra(), SW_LL)
        assert state.rdnss.count(IPv6Address("fd00:976a::9")) == 1


class TestRaRefresh:
    """A repeated RA refreshes lifetimes in place; the state must equal
    that of applying every RA in full."""

    ROUTERS = (GW_LL, SW_LL, IPv6Address("fe80::3"))
    PREFIXES = (
        IPv6Network("2607:fb90:9bda:a425::/64"),
        IPv6Network("fd00:976a::/64"),
        IPv6Network("2001:db8:1::/64"),
        IPv6Network("2001:db8:100::/56"),
    )
    RDNSS = (IPv6Address("fd00:976a::9"), IPv6Address("fd00:976a::10"), IPv6Address("2001:db8::53"))

    def _pio(self, rng, prefix, valid):
        return PrefixInformation(
            prefix,
            autonomous=rng.random() < 0.8,
            valid_lifetime=valid,
            preferred_lifetime=valid // 2,
        )

    def _ra(self, rng, pios, router_lifetime=None):
        if router_lifetime is None:
            router_lifetime = rng.choice((0, 40, 600, 1800))
        options = list(pios)
        options.append(RdnssOption(tuple(rng.sample(self.RDNSS, rng.randint(1, 2)))))
        if rng.random() < 0.5:
            mac = MacAddress(rng.randrange(1 << 40))
            options.append(LinkLayerAddressOption(NdOptionType.SOURCE_LINK_LAYER_ADDRESS, mac))
        return RouterAdvertisement(
            router_lifetime=router_lifetime,
            preference=rng.choice(list(RouterPreference)),
            options=tuple(options),
        )

    def _step(self, rng, state, last, latest):
        """One (RA, router) to send, drawn from the kinds of RA stream a
        host sees: mostly repeats of one object, with the changes that
        must not be mistaken for a repeat.  ``last`` maps each router to
        the RA it sent last; ``latest`` is the last (RA, router) sent."""
        kinds = ("repeat", "other_router", "equal_copy", "new", "router_gone", "prefix_gone")
        kind = rng.choices(kinds + ("handover",), weights=(8, 1, 2, 2, 1, 1, 1))[0]
        router = rng.choice(self.ROUTERS)
        if kind == "repeat" and router in last:
            return last[router], router
        if kind == "other_router" and latest is not None:
            ra, sender = latest
            return ra, rng.choice([r for r in self.ROUTERS if r != sender])
        if kind == "equal_copy" and router in last:
            return dataclasses.replace(last[router]), router
        if kind == "router_gone":
            return self._ra(rng, (), router_lifetime=0), router
        if kind in ("prefix_gone", "handover") and state.prefixes:
            prefix, learned = rng.choice(sorted(state.prefixes.items(), key=str))
            if kind == "prefix_gone":
                return self._ra(rng, [self._pio(rng, prefix, 0)]), router
            taker = rng.choice([r for r in self.ROUTERS if r != learned.learned_from])
            return self._ra(rng, [self._pio(rng, prefix, rng.choice((60, 1800)))]), taker
        # Drawn with replacement: an RA may name a prefix twice.
        pios = [
            self._pio(rng, prefix, rng.choice((0, 60, 300, 1800)))
            for prefix in rng.choices(self.PREFIXES, k=rng.randint(0, 3))
        ]
        return self._ra(rng, pios), router

    @pytest.mark.parametrize("seed", range(6))
    def test_refresh_matches_full_application(self, seed):
        rng = random.Random(seed)
        clock = FakeClock()
        state = SlaacState(MAC, clock)
        reference = SlaacState(MAC, clock)
        last = {}
        latest = None
        repeats = 0
        for step in range(400):
            clock.now += rng.choice((0, 1, 10, 45, 200, 1000))
            ra, router = self._step(rng, state, last, latest)
            repeats += last.get(router) is ra
            last[router] = ra
            latest = (ra, router)
            state.process_ra(ra, router)
            # The reference forgets its refresh records, so every RA takes
            # the full path.
            reference._refreshes.clear()
            reference.process_ra(ra, router)
            where = f"seed {seed} step {step}"
            assert state.routers == reference.routers, where
            assert list(state.prefixes.items()) == list(reference.prefixes.items()), where
            assert state.rdnss == reference.rdnss, where
            assert state.epoch == reference.epoch, where
            assert state.addresses() == reference.addresses(), where
            assert state.default_router() == reference.default_router(), where
        assert repeats > 100


class TestRaDaemon:
    def test_build_includes_all_options(self):
        config = RaDaemonConfig(
            prefixes=(IPv6Network("fd00:976a::/64"),),
            rdnss=(IPv6Address("fd00:976a::9"),),
            preference=RouterPreference.LOW,
            mtu=1500,
        )
        daemon = RaDaemon(config, MAC)
        ra = daemon.build_ra()
        assert ra.preference == RouterPreference.LOW
        assert ra.prefixes[0].prefix == IPv6Network("fd00:976a::/64")
        assert ra.rdnss_servers == [IPv6Address("fd00:976a::9")]
        assert ra.source_lladdr == MAC
        assert daemon.sent == 1


class TestPolicyTable:
    def test_loopback_highest_precedence(self):
        prec, label = precedence_and_label(IPv6Address("::1"))
        assert (prec, label) == (50, 0)

    def test_native_v6(self):
        assert precedence_and_label(IPv6Address("2607:fb90::1")) == (40, 1)

    def test_v4_as_mapped(self):
        assert precedence_and_label(IPv4Address("23.153.8.71")) == (35, 4)

    def test_ula(self):
        assert precedence_and_label(IPv6Address("fd00:976a::9")) == (3, 13)

    def test_teredo_and_6to4(self):
        assert precedence_and_label(IPv6Address("2001::1")) == (5, 5)
        assert precedence_and_label(IPv6Address("2002::1")) == (30, 2)


class TestSourceSelection:
    GUA = IPv6Address("2607:fb90:9bda:a425:200:59ff:feaa:c6ab")
    ULA = IPv6Address("fd00:976a::200:59ff:feaa:c6ab")
    LL = IPv6Address("fe80::200:59ff:feaa:c6ab")
    V4 = IPv4Address("192.168.12.50")

    def test_gua_for_internet_destination(self):
        src = select_source_address(
            IPv6Address("2001:4810:0:3::71"), [self.GUA, self.ULA, self.LL]
        )
        assert src == self.GUA

    def test_ula_for_ula_destination(self):
        # Label matching (rule 6) picks the ULA source for the DNS server.
        src = select_source_address(IPv6Address("fd00:976a::9"), [self.GUA, self.ULA, self.LL])
        assert src == self.ULA

    def test_link_local_for_link_local(self):
        src = select_source_address(IPv6Address("fe80::1"), [self.GUA, self.ULA, self.LL])
        assert src == self.LL

    def test_family_separation(self):
        assert select_source_address(IPv4Address("8.8.8.8"), [self.GUA]) is None
        assert select_source_address(self.GUA, [self.V4]) is None

    def test_v4_source_for_v4_destination(self):
        assert select_source_address(IPv4Address("8.8.8.8"), [self.V4, self.GUA]) == self.V4

    def test_exact_match_rule1(self):
        src = select_source_address(self.GUA, [self.GUA, self.ULA])
        assert src == self.GUA

    def test_no_candidates(self):
        assert select_source_address(IPv6Address("2001:db8::1"), []) is None


class TestDestinationOrdering:
    SOURCES = [
        IPv4Address("192.168.12.50"),
        IPv6Address("2607:fb90:9bda:a425:200:59ff:feaa:c6ab"),
        IPv6Address("fe80::200:59ff:feaa:c6ab"),
    ]

    def test_dual_stack_prefers_v6(self):
        """The property the paper's intervention leans on (§IV.A)."""
        ordered = order_destinations(
            [
                CandidateAddress(IPv4Address("23.153.8.71")),
                CandidateAddress(IPv6Address("2001:4810:0:3::71")),
            ],
            self.SOURCES,
        )
        assert isinstance(ordered[0], IPv6Address)

    def test_v4_only_host_puts_v4_first(self):
        ordered = order_destinations(
            [
                CandidateAddress(IPv6Address("2001:4810:0:3::71")),
                CandidateAddress(IPv4Address("23.153.8.71")),
            ],
            [IPv4Address("192.168.12.50")],  # no v6 sources at all
        )
        assert isinstance(ordered[0], IPv4Address)

    def test_unreachable_candidates_sorted_last(self):
        ordered = order_destinations(
            [
                CandidateAddress(IPv6Address("2001:4810:0:3::71"), reachable=False),
                CandidateAddress(IPv4Address("23.153.8.71")),
            ],
            self.SOURCES,
        )
        assert isinstance(ordered[0], IPv4Address)

    def test_stable_for_equal_candidates(self):
        a = CandidateAddress(IPv6Address("2600::1"))
        b = CandidateAddress(IPv6Address("2600::2"))
        assert order_destinations([a, b], self.SOURCES) == [a.address, b.address]

    def test_nat64_synthesized_is_regular_v6(self):
        # DNS64 answers are plain GUAs; a v6-only host orders them first
        # even when an A record is also present.
        ordered = order_destinations(
            [
                CandidateAddress(IPv4Address("190.92.158.4"), reachable=False),
                CandidateAddress(IPv6Address("64:ff9b::be5c:9e04")),
            ],
            [IPv6Address("2607:fb90:9bda:a425::1"), IPv6Address("fe80::1")],
        )
        assert ordered[0] == IPv6Address("64:ff9b::be5c:9e04")

    def test_empty(self):
        assert order_destinations([], self.SOURCES) == []
