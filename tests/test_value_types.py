"""The value types of the scan path: equal by value, frozen, and checked.

They are NamedTuples, and the checked ones run their checks in a subclass's
`__new__`.  Each case builds one value twice, names a field, and, for a
checked type, builds a bad value and gives the message it is refused with.
A SimRouter has no check of its own: the SimTopology holding it checks it.
"""

import ipaddress
import math

import pytest

from srascan.netsim import Delivery, Emission, Interface, Route, SimRouter, SimTopology
from srascan.probe_engine import ProbeConfig, ReplyKind, ReplyRecord
from srascan.addresses import Ipv6Prefix, parse_prefix
from srascan.target_gen import GenerationConfig


def addr(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


NET = parse_prefix("2001:db8::/32")
LAN = parse_prefix("2001:db8:1::/64")


def router(**knobs):
    return SimRouter("r", (Interface(LAN.bits | 1, LAN),), (Route(NET, "core"),), **knobs)


def core():
    return SimRouter("core", (Interface(LAN.bits | 2, LAN),))


# name: (build a value, a field, build a bad value or None, its refusal)
CASES = {
    "Ipv6Prefix": (
        lambda: Ipv6Prefix(addr("2001:db8:1::"), 48),
        "length",
        lambda: Ipv6Prefix(addr("2001:db8:1::1"), 48),
        "2001:db8:1::1/48 has host bits set",
    ),
    "Ipv6Prefix length": (
        lambda: Ipv6Prefix(0, 0),
        "bits",
        lambda: Ipv6Prefix(0, 129),
        "prefix length 129 out of range 0..128",
    ),
    "GenerationConfig": (
        lambda: GenerationConfig(rng_seed=7),
        "rng_seed",
        lambda: GenerationConfig(route6_samples_per_prefix=0),
        "route6_samples_per_prefix must be >= 1",
    ),
    "ProbeConfig": (
        lambda: ProbeConfig(secret=9, scan_pass=2),
        "scan_pass",
        lambda: ProbeConfig(send_rate=math.nan),
        "send_rate must be finite and > 0",
    ),
    "Interface": (
        lambda: Interface(LAN.bits | 1, LAN),
        "address",
        lambda: Interface(addr("2001:db9::1"), LAN),
        "interface address 2001:db9::1 not inside 2001:db8:1::/64",
    ),
    "Route": (lambda: Route(LAN, "core"), "next_hop", None, None),
    "SimRouter": (router, "sra_enabled", None, None),
    "SimTopology": (
        lambda: SimTopology((router(), core()), "r"),
        "max_events",
        lambda: SimTopology((router(), core()), "r", max_events=0),
        "max_events must be >= 1",
    ),
    "Emission": (lambda: Emission(0.5, b"\x60"), "packet", None, None),
    # A tuple of emissions, so that the value hashes.
    "Delivery": (lambda: Delivery((Emission(0.5, b"\x60"),), 3, False), "events", None, None),
    "ReplyRecord": (
        lambda: ReplyRecord(ReplyKind.ECHO_REPLY, 129, 0, addr("2001:db8::1"), None, 64, 0.5),
        "timestamp",
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_types_are_frozen_values_with_their_checks(name):
    build, field, build_bad, refusal = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # A frozen dataclass hashed the tuple of its fields, so sets of these
    # values iterate in the order they always did.
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.note = "no room for new attributes"
    if build_bad is not None:
        with pytest.raises(ValueError) as refused:
            build_bad()
        assert str(refused.value) == refusal


def test_sim_router_is_frozen_and_its_topology_refuses_bad_knobs():
    built = SimRouter("r", (Interface(LAN.bits | 1, LAN),))
    assert built.routes == () and built.sra_enabled
    with pytest.raises(AttributeError):
        built.sra_enabled = False
    for knobs, refusal in [
        ({"error_rate": -1.0}, "router 'r': error_rate must be a finite number >= 0"),
        ({"error_burst": math.inf}, "router 'r': error_burst must be a finite number >= 0"),
        ({"replication_factor": 0}, "replication_factor must be >= 1"),
        ({"sra_source": "egress"}, "unknown sra_source 'egress'"),
        ({"interfaces": ()}, "router 'r' needs at least one interface"),
    ]:
        with pytest.raises(ValueError) as refused:
            SimTopology((router()._replace(**knobs), core()), "r")
        assert str(refused.value) == refusal
