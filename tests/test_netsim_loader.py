"""Topology loading: the one-pass compiler against per-item parsing.

`topology_from_dict` parses every address and prefix text of a file in one
C chain and falls back to `parse_address` or `parse_prefix`, item by item,
on a list the chain refuses.  Each case below is refused with the message
the per-item parser gives, or loads the value it gives.
"""

import heapq

import pytest

from reference_netsim import ReferenceSimulation
from srascan.netsim import (
    Interface,
    SimTopology,
    Simulation,
    build_gateway_fanout,
    build_loop_topology,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from srascan.probe_engine import ProbeConfig, ReplyKind, build_echo_request, classify_icmp
from srascan.addresses import parse_address, parse_prefix


def two_routers() -> dict:
    return {
        "version": 1,
        "entry_router": "a",
        "aliased_prefixes": ["2001:db8:9::/48"],
        "routers": [
            {
                "id": "a",
                "interfaces": [{"addr": "2001:db8::1", "subnet": "2001:db8::/64"}],
                "routes": [{"prefix": "2001:db8:1::/48", "next_hop": "b"}],
            },
            {
                "id": "b",
                "interfaces": [
                    {"addr": "2001:db8::2", "subnet": "2001:db8::/64"},
                    {"addr": "2001:db8:1::1", "subnet": "2001:db8:1::/64"},
                ],
            },
        ],
    }


# Where a text goes in two_routers(), how the per-item path parses it, and
# where the loaded topology keeps the value.
PLACES = {
    "addr": (
        lambda d, text: d["routers"][0]["interfaces"][0].update(addr=text),
        parse_address,
        lambda topo: topo.routers[0].interfaces[0].address,
    ),
    "subnet": (
        lambda d, text: d["routers"][0]["interfaces"][0].update(subnet=text),
        parse_prefix,
        lambda topo: topo.routers[0].interfaces[0].subnet,
    ),
    "route": (
        lambda d, text: d["routers"][0]["routes"][0].update(prefix=text),
        parse_prefix,
        lambda topo: topo.routers[0].routes[0].prefix,
    ),
    "aliased": (
        lambda d, text: d.update(aliased_prefixes=[text]),
        parse_prefix,
        lambda topo: topo.aliased_prefixes[0],
    ),
}


@pytest.mark.parametrize(
    "where,text",
    [
        ("addr", 5),  # a JSON number
        ("addr", ""),
        ("addr", "2001:db8::zz"),
        ("addr", "2001:db8::1/64"),
        ("addr", "2001:db8::1%eth0"),  # scoped: the scope is dropped
        ("addr", " 2001:db8::1 "),
        ("subnet", 64),  # a JSON number
        ("subnet", ""),  # blank
        ("subnet", "2001:db8::1/64"),  # host bits set
        ("subnet", "2001:db8::/129"),  # bad length
        ("subnet", "2001:db8::/-1"),
        ("subnet", "2001:db8::/x"),
        ("subnet", "2001:db8::1"),  # bare: a /128
        ("route", 64),
        ("route", "2001:db8:1::/47"),  # host bits set
        ("route", "2001:db8:1::%eth0/48"),  # scoped
        ("route", " 2001:db8:1::/48 "),
        ("aliased", 64),
        ("aliased", ["2001:db8:9::/48"]),  # unhashable
        ("aliased", "2001:db8:9::/300"),
        ("aliased", "2001:db8:9::"),
    ],
)
def test_each_text_loads_as_its_own_parser_reads_it(where, text):
    place, parse, loaded = PLACES[where]
    data = two_routers()
    place(data, text)
    try:
        expected = parse(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            topology_from_dict(data)
        assert str(refused.value) == str(exc)
    else:
        assert loaded(topology_from_dict(data)) == expected


def test_an_interface_outside_its_subnet_is_refused_as_interface_refuses_it():
    data = two_routers()
    data["routers"][1]["interfaces"][1]["addr"] = "2001:db8:2::1"
    with pytest.raises(ValueError) as expected:
        Interface(parse_address("2001:db8:2::1"), parse_prefix("2001:db8:1::/64"))
    with pytest.raises(ValueError) as refused:
        topology_from_dict(data)
    assert str(refused.value) == str(expected.value)


def test_one_scoped_address_leaves_every_other_value_as_it_was():
    data = two_routers()
    plain = topology_to_dict(topology_from_dict(data))
    data["routers"][1]["interfaces"][1]["addr"] = "2001:db8:1::1%eth1"
    assert topology_to_dict(topology_from_dict(data)) == plain


def fanout():
    return build_gateway_fanout(n_inactive=300, m_active=500, aliased=50, seed=3)


def test_a_fanout_file_round_trips(tmp_path):
    topology, _ = fanout()
    path = tmp_path / "fanout.json"
    save_topology(topology, path)
    assert topology_to_dict(load_topology(path)) == topology_to_dict(topology)


def probe(dst: int, hop_limit: int = 64) -> bytes:
    return build_echo_request(dst, ProbeConfig(secret=7, hop_limit=hop_limit))


def test_a_loaded_fanout_simulates_as_the_one_it_was_saved_from(tmp_path):
    topology, meta = fanout()
    path = tmp_path / "fanout.json"
    save_topology(topology, path)
    built, loaded = Simulation(topology), Simulation(load_topology(path))
    for key in ("active_prefixes", "inactive_prefixes", "aliased_prefixes"):
        for prefix in meta[key][:20]:
            for dst in (prefix.sra, prefix.sra | 5):
                assert loaded.inject(probe(dst)) == built.inject(probe(dst))
    assert loaded.token_states() == built.token_states()


def test_edits_to_loaded_routers_reach_the_next_simulation(tmp_path):
    topology, meta = fanout()
    path = tmp_path / "fanout.json"
    save_topology(topology, path)
    loaded = load_topology(path)
    dst = meta["active_prefixes"][0].sra
    (echo,) = Simulation(loaded).inject(probe(dst)).emissions
    assert classify_icmp(echo.packet, 7, 0.0).kind is ReplyKind.ECHO_REPLY
    routers = list(loaded.routers)
    # leaf0 now answers its anycast with code 3
    routers[1] = routers[1]._replace(sra_enabled=False)
    loaded = SimTopology(routers, loaded.entry_router, loaded.aliased_prefixes, loaded.max_events)
    (error,) = Simulation(loaded).inject(probe(dst)).emissions
    assert classify_icmp(error.packet, 7, 0.0).kind is ReplyKind.DEST_UNREACHABLE


def test_a_forward_pushes_no_copy_the_budget_cannot_reach(monkeypatch):
    """A factor of 10**9 against a budget of 10 events pushes a few dozen
    heap entries, not 10**9 per forward."""
    pushes = 0
    push = heapq.heappush

    def counted(heap, item):
        nonlocal pushes
        pushes += 1
        assert pushes <= 1000, "a forward pushed copies past the event budget"
        push(heap, item)

    loop = build_loop_topology(replication_factor=10**9)
    topology = SimTopology(loop.routers, loop.entry_router, max_events=10)
    sim = Simulation(topology)
    monkeypatch.setattr(heapq, "heappush", counted)
    delivery = sim.inject(probe(parse_address("2001:db8:2::"), hop_limit=40))
    assert delivery.budget_exceeded
    assert delivery.events == 10


@pytest.mark.parametrize("max_events", [1, 2, 7, 40, 400])
@pytest.mark.parametrize("replicate_on", ["customer", "provider"])
def test_a_cut_replication_delivers_what_every_copy_would(max_events, replicate_on):
    """The reference pushes every copy; the simulator only those it can pop."""
    loop = build_loop_topology(replication_factor=5, replicate_on=replicate_on)
    topology = SimTopology(loop.routers, loop.entry_router, max_events=max_events)
    sim, ref = Simulation(topology), ReferenceSimulation(topology)
    for hop_limit in (3, 8, 40):
        packet = probe(parse_address("2001:db8:2::"), hop_limit=hop_limit)
        assert sim.inject(packet) == ref.inject(packet)
    assert sim.token_states() == ref.token_states()
