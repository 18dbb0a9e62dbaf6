"""The test-ipv6.com runner's resolver subtests: a dead resolver is a
failed subtest, any other resolver error is a defect that must surface."""

from types import SimpleNamespace

import pytest

from repro.dns.resolver import DnsTransportError
from repro.services.testipv6 import run_test_ipv6, TestIpv6Mirror
from repro.sim.engine import EventEngine


def client_whose_resolver_raises(error):
    """A client whose every fetch fails and whose resolver raises ``error``."""

    def resolve(name, rrtype):
        raise error

    def no_page(*args, **kwargs):
        return SimpleNamespace(response=None, address=None, detail="no route")

    return SimpleNamespace(
        name="client",
        fetch=no_page,
        fetch_literal=no_page,
        resolver=SimpleNamespace(resolve=resolve),
    )


def test_dead_resolver_fails_the_dns_subtests():
    client = client_whose_resolver_raises(DnsTransportError("all servers timed out"))
    report = run_test_ipv6(client, TestIpv6Mirror(EventEngine()))
    subtests = {subtest.name: subtest for subtest in report.subtests}
    for name in ("dns_resolves_a", "dns_resolves_aaaa"):
        assert not subtests[name].passed
        assert subtests[name].detail == "error=all servers timed out"


def test_resolver_defect_is_raised_not_scored():
    client = client_whose_resolver_raises(RuntimeError("resolver bug"))
    with pytest.raises(RuntimeError, match="resolver bug"):
        run_test_ipv6(client, TestIpv6Mirror(EventEngine()))
