"""IPv4/IPv6 transition technology: the translation stack that lets an
IPv6-only client reach the IPv4 internet.

- :mod:`repro.xlat.siit` — stateless IP/ICMP header translation
  (RFC 7915, successor of the RFC 6145 algorithm the paper cites);
- :mod:`repro.xlat.nat64` — stateful NAT64 (RFC 6146), the gateway-side
  translator (the 5G gateway's built-in one uses ``64:ff9b::/96``);
- :mod:`repro.xlat.dns64` — DNS64 (RFC 6147), AAAA synthesis from A;
- :mod:`repro.xlat.clat` — the customer-side translator of 464XLAT
  (RFC 6877) that RFC 8925 option 108 activates on clients.
"""

from repro.xlat.clat import Clat, ClatConfig
from repro.xlat.dns64 import DNS64Resolver
from repro.xlat.nat64 import Nat64Config, Nat64Session, StatefulNAT64
from repro.xlat.siit import translate_v4_to_v6, translate_v6_to_v4, TranslationError

__all__ = [
    "translate_v4_to_v6",
    "translate_v6_to_v4",
    "TranslationError",
    "StatefulNAT64",
    "Nat64Config",
    "Nat64Session",
    "DNS64Resolver",
    "Clat",
    "ClatConfig",
]
