"""The compiled simulator against the linear-scan reference in reference_netsim.

Topologies are drawn from a handful of addresses in one /48, so interfaces,
routes and aliased prefixes nest, overlap and repeat, and routers share
subnets.  Routes include /0 catch-alls and `default` next hops, so DEFAULT
chains resolve in every way.  Routers vary `sra_enabled`, `sra_source`,
replication factors and error buckets; probes carry hop limits of 1 to 8
and event budgets go down to 3, so loops expire, amplify and hit the budget.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_netsim import ReferenceSimulation
from srascan.netsim import (
    DEFAULT,
    LOCAL,
    Interface,
    Route,
    SimRouter,
    SimTopology,
    Simulation,
)
from srascan.probe_engine import ProbeConfig, build_echo_request
from srascan.target_gen import MAX128, Ipv6Prefix, parse_prefix

BASE = parse_prefix("2001:db8::/48").bits
POINTS = [BASE | (net << 64) | host for net in (0, 1, 2, 0x100) for host in (0, 1, 2)]
OUTSIDE = parse_prefix("2001:db8:1::/48").bits  # only /32 and /0 routes reach it
SUBNET_LENGTHS = (48, 56, 63, 64, 64, 64, 127, 128)
ROUTE_LENGTHS = (0, 0, 32, 48, 56, 64, 128)
ALIAS_LENGTHS = (56, 64, 64, 127)


def covering(address: int, length: int) -> Ipv6Prefix:
    return Ipv6Prefix(address & (MAX128 ^ ((1 << (128 - length)) - 1)), length)


def prefixes(lengths):
    return st.builds(covering, st.sampled_from(POINTS), st.sampled_from(lengths))


@st.composite
def scenarios(draw):
    """A topology over a few shared subnets, and a probe stream into it."""
    subnets = draw(st.lists(prefixes(SUBNET_LENGTHS), min_size=1, max_size=4))
    ids = [f"r{i}" for i in range(draw(st.integers(1, 4)))]
    routers = []
    for rid in ids:
        interfaces = []
        for subnet in draw(st.lists(st.sampled_from(subnets), min_size=1, max_size=3)):
            host = draw(st.sampled_from([1, 2])) & subnet.host_mask()
            interfaces.append(Interface(subnet.bits | host, subnet))
        others = [o for o in ids if o != rid]
        next_hops = st.sampled_from([LOCAL, DEFAULT] + others * 3)
        destinations = st.one_of(st.sampled_from(subnets), prefixes(ROUTE_LENGTHS))
        routes = [Route(prefix, draw(next_hops)) for prefix in draw(st.lists(destinations, max_size=5))]
        routers.append(
            SimRouter(
                id=rid,
                interfaces=interfaces,
                routes=routes,
                error_rate=draw(st.sampled_from([0.0, 1.0, 1000.0])),
                error_burst=draw(st.sampled_from([1.0, 3.0])),
                sra_enabled=draw(st.booleans()),
                replication_factor=draw(st.integers(1, 3)),
                sra_source=draw(st.sampled_from(["ingress", "first_interface"])),
            )
        )
    topology = SimTopology(
        routers=routers,
        entry_router=draw(st.sampled_from(ids)),
        aliased_prefixes=draw(st.lists(prefixes(ALIAS_LENGTHS), max_size=1)),
        max_events=draw(st.sampled_from([3, 60, 2000])),
    )
    addresses = [s.bits for s in subnets] + [i.address for r in routers for i in r.interfaces]
    addresses += [a | 0x55 for a in addresses] + [OUTSIDE]
    stream = draw(
        st.lists(
            st.tuples(
                st.sampled_from(addresses),
                st.integers(1, 8),  # hop limit
                st.sampled_from([0.0, 0.001, 0.5, 2.0]),  # virtual time since the last probe
            ),
            min_size=1,
            max_size=12,
        )
    )
    return topology, stream


def ingress_scenario():
    """`b` meets `a` on its second interface, so its anycast reply comes from there."""
    n1, n2 = covering(POINTS[3], 64), covering(POINTS[6], 64)
    a = SimRouter("a", [Interface(n1.bits | 1, n1)], [Route(n2, "b")])
    b = SimRouter("b", [Interface(n2.bits | 1, n2), Interface(n1.bits | 2, n1)])
    return SimTopology([a, b], "a"), [(n2.bits, 2, 0.0), (n2.bits | 5, 2, 0.0)]


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example(ingress_scenario())
def test_compiled_simulation_matches_the_reference(scenario):
    topology, stream = scenario
    sim, ref = Simulation(topology), ReferenceSimulation(topology)
    # the compiled ingress map keeps only pairs that share a subnet
    assert set(sim._ingress) <= set(ref._ingress)
    assert {pair: sim._ingress.get(pair, 0) for pair in ref._ingress} == ref._ingress
    now = 0.0
    for dst, hop_limit, step in stream:
        now += step
        packet = build_echo_request(dst, ProbeConfig(secret=7, hop_limit=hop_limit))
        assert sim.inject(packet, now) == ref.inject(packet, now)
    assert sim.token_states() == ref.token_states()

