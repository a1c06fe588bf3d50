"""Simulator behavior against hand-derived outcomes.

The loop amplification counts are computed from first principles below
(mutual recursion over hop limits) rather than taken from the simulator,
so the two must agree independently.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rfc4443_oracle as oracle
from srascan import netsim
from srascan.netsim import (
    DEFAULT_MAX_EVENTS,
    Interface,
    MalformedPacketError,
    Route,
    SimRouter,
    SimTopology,
    SimTransport,
    Simulation,
    build_gateway_fanout,
    build_loop_topology,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from srascan.probe_engine import (
    ProbeConfig,
    ReplyKind,
    build_echo_request,
    build_ipv6_icmp,
    classify_icmp,
    run_scan,
)
from srascan.addresses import parse_address, parse_prefix
from test_netsim_reference import scenarios

SECRET = 0xC0FFEE
CFG = ProbeConfig(secret=SECRET, cooldown=0.05)
LOOP = build_loop_topology()


def addr(text: str) -> int:
    return parse_address(text)


def probe(dst: str | int, hop_limit: int = 64) -> bytes:
    cfg = ProbeConfig(secret=SECRET, hop_limit=hop_limit)
    target = addr(dst) if isinstance(dst, str) else dst
    return build_echo_request(target, cfg)


def classified(delivery):
    return [classify_icmp(em.packet, SECRET, em.time) for em in delivery.emissions]


def two_router_path(core_iface_order=("link", "lan"), sra_source="ingress"):
    """edge --(2001:db8:10::/64)-- core --(2001:db8:20::/64 attached)."""
    link = Interface(addr("2001:db8:10::2"), parse_prefix("2001:db8:10::/64"))
    lan = Interface(addr("2001:db8:20::1"), parse_prefix("2001:db8:20::/64"))
    ifaces = [link if n == "link" else lan for n in core_iface_order]
    edge = SimRouter(
        id="edge",
        interfaces=[Interface(addr("2001:db8:10::1"), parse_prefix("2001:db8:10::/64"))],
        routes=[Route(parse_prefix("2001:db8:20::/64"), "core")],
    )
    core = SimRouter(id="core", interfaces=ifaces, sra_source=sra_source)
    return SimTopology(routers=[edge, core], entry_router="edge")


class TestReplyRules:
    def test_anycast_reply_comes_from_ingress_interface(self):
        delivery = Simulation(two_router_path()).inject(probe("2001:db8:20::"))
        (rec,) = classified(delivery)
        assert rec.kind is ReplyKind.ECHO_REPLY
        assert rec.source == addr("2001:db8:10::2")
        assert rec.embedded_target == addr("2001:db8:20::")

    def test_anycast_reply_source_can_be_pinned_to_first_interface(self):
        topo = two_router_path(core_iface_order=("lan", "link"), sra_source="first_interface")
        (rec,) = classified(Simulation(topo).inject(probe("2001:db8:20::")))
        assert rec.source == addr("2001:db8:20::1")

    def test_ingress_lookup_still_works_with_reordered_interfaces(self):
        topo = two_router_path(core_iface_order=("lan", "link"))
        (rec,) = classified(Simulation(topo).inject(probe("2001:db8:20::")))
        assert rec.source == addr("2001:db8:10::2")

    def test_interface_address_replies_as_itself(self):
        (rec,) = classified(Simulation(two_router_path()).inject(probe("2001:db8:20::1")))
        assert rec.kind is ReplyKind.ECHO_REPLY
        assert rec.source == addr("2001:db8:20::1")

    def test_anycast_ignored_when_disabled(self):
        edge, core = two_router_path().routers
        topo = SimTopology([edge, core._replace(sra_enabled=False)], "edge")
        delivery = Simulation(topo).inject(probe("2001:db8:20::"))
        (rec,) = classified(delivery)
        # falls through to local delivery, which has no such host
        assert rec.kind is ReplyKind.DEST_UNREACHABLE
        assert rec.code == 3
        assert rec.source == addr("2001:db8:10::2")

    def test_no_route_yields_unreachable_code_0(self):
        (rec,) = classified(Simulation(two_router_path()).inject(probe("2001:db8:30::")))
        assert rec.kind is ReplyKind.DEST_UNREACHABLE
        assert rec.code == 0
        assert rec.source == addr("2001:db8:10::1")
        assert rec.embedded_target == addr("2001:db8:30::")

    def test_attached_subnet_with_no_host_yields_code_3(self):
        (rec,) = classified(Simulation(two_router_path()).inject(probe("2001:db8:20::42")))
        assert rec.kind is ReplyKind.DEST_UNREACHABLE
        assert rec.code == 3
        assert rec.source == addr("2001:db8:10::2")

    def test_hop_limit_expires_before_forwarding(self):
        delivery = Simulation(two_router_path()).inject(probe("2001:db8:20::", hop_limit=1))
        (rec,) = classified(delivery)
        assert rec.kind is ReplyKind.TIME_EXCEEDED
        assert rec.code == 0
        assert rec.source == addr("2001:db8:10::1")
        assert rec.embedded_target == addr("2001:db8:20::")

    def test_hop_limit_2_reaches_the_second_router(self):
        delivery = Simulation(two_router_path()).inject(probe("2001:db8:20::", hop_limit=2))
        (rec,) = classified(delivery)
        assert rec.kind is ReplyKind.ECHO_REPLY

    def test_default_route_resolves_through_the_catch_all(self):
        edge = SimRouter(
            id="edge",
            interfaces=[Interface(addr("2001:db8:10::1"), parse_prefix("2001:db8:10::/64"))],
            routes=[
                Route(parse_prefix("2001:db8:20::/56"), "default"),
                Route(parse_prefix("::/0"), "core"),
            ],
        )
        core = SimRouter(
            id="core",
            interfaces=[
                Interface(addr("2001:db8:10::2"), parse_prefix("2001:db8:10::/64")),
                Interface(addr("2001:db8:20::1"), parse_prefix("2001:db8:20::/64")),
            ],
        )
        topo = SimTopology(routers=[edge, core], entry_router="edge")
        (rec,) = classified(Simulation(topo).inject(probe("2001:db8:20::")))
        assert rec.kind is ReplyKind.ECHO_REPLY
        assert rec.source == addr("2001:db8:10::2")

    def test_error_quote_is_cut_to_the_minimum_mtu_and_an_echo_is_not(self):
        """A probe of 1440 bytes draws a 1280-byte error and a whole echo."""
        body = bytes(range(256)) * 5 + bytes(112)
        icmp = bytes([128, 0, 0, 0, 0, 7, 0, 9]) + body
        packet = build_ipv6_icmp(addr("2001:db8:10::9"), addr("2001:db8:20::"), 64, icmp)
        assert len(packet) == 1440

        (echo,) = Simulation(two_router_path()).inject(packet).emissions
        core_link = addr("2001:db8:10::2").to_bytes(16, "big")
        assert echo.packet == oracle.build_echo_reply(packet, core_link)
        assert echo.packet[48:] == body

        edge, core = two_router_path().routers
        # The same probe now draws code 3 at core.
        topo = SimTopology([edge, core._replace(sra_enabled=False)], "edge")
        (error,) = Simulation(topo).inject(packet).emissions
        assert len(error.packet) == 1280
        assert error.packet == oracle.build_error(
            packet[:7] + bytes([63]) + packet[8:], core_link, 1, 3, quote_limit=1232
        )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_every_emission_is_an_rfc4443_reply_to_its_probe(scenario):
    """Rebuild each emission with the oracle from its source, type and code.

    An Echo Reply must echo the probe; an error must quote the probe with a
    hop limit it could have had at the router: 0 for Time Exceeded, 1 up to
    the probe's own for Destination Unreachable.  Sources must be addresses
    of the topology, or the destination itself for an echo.
    """
    topology, stream = scenario
    interfaces = {i.address for r in topology.routers for i in r.interfaces}
    canonical = {r.canonical_address for r in topology.routers}
    sim = Simulation(topology)
    now = 0.0
    for dst, hop_limit, step in stream:
        now += step
        packet = build_echo_request(dst, ProbeConfig(secret=7, hop_limit=hop_limit))
        for em in sim.inject(packet, now).emissions:
            assert em.time == now
            src, icmp_type, code = em.packet[8:24], em.packet[40], em.packet[41]
            if icmp_type == 129:
                assert int.from_bytes(src, "big") in interfaces | {dst}
                assert em.packet == oracle.build_echo_reply(packet, src)
                continue
            assert int.from_bytes(src, "big") in canonical
            hops = {(1, 0): range(1, hop_limit + 1), (1, 3): range(1, hop_limit + 1),
                    (3, 0): [0]}[(icmp_type, code)]
            rebuilt = [
                oracle.build_error(
                    packet[:7] + bytes([hop]) + packet[8:], src, icmp_type, code,
                    quote_limit=1232,
                )
                for hop in hops
            ]
            assert em.packet in rebuilt


class TestTokenBuckets:
    def single_router(self, rate, burst):
        r = SimRouter(
            id="r",
            interfaces=[Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))],
            error_rate=rate,
            error_burst=burst,
        )
        return Simulation(SimTopology(routers=[r], entry_router="r"))

    def test_rate_zero_silences_errors_but_not_echo_replies(self):
        sim = self.single_router(rate=0.0, burst=10.0)
        assert sim.inject(probe("2001:db9::"), 0.0).emissions == []  # no route
        echo = sim.inject(probe("2001:db8::"), 0.0)  # anycast
        assert len(echo.emissions) == 1

    def test_burst_bounds_errors_then_refill_restores(self):
        sim = self.single_router(rate=1.0, burst=3.0)
        got = [len(sim.inject(probe("2001:db9::"), 0.0).emissions) for _ in range(5)]
        assert got == [1, 1, 1, 0, 0]
        later = [len(sim.inject(probe("2001:db9::"), 2.0).emissions) for _ in range(3)]
        assert later == [1, 1, 0]

    def test_refill_never_exceeds_burst(self):
        sim = self.single_router(rate=1000.0, burst=2.0)
        sim.inject(probe("2001:db9::"), 0.0)
        got = [len(sim.inject(probe("2001:db9::"), 1e9).emissions) for _ in range(4)]
        assert got == [1, 1, 0, 0]


def expected_loop_replies(hop_limit: int, replication: int) -> int:
    """Replies from a two-router loop, derived by recursion, not simulation.

    A packet at a router with hop limit h is forwarded with h-1 (expiring
    at 0), multiplied by that router's replication factor on the way out.
    """
    at_provider = {0: 0}
    at_customer = {0: 0}

    def p(h):
        if h not in at_provider:
            at_provider[h] = 1 if h == 1 else c(h - 1)
        return at_provider[h]

    def c(h):
        if h not in at_customer:
            at_customer[h] = 1 if h == 1 else replication * p(h - 1)
        return at_customer[h]

    return p(hop_limit)


class TestLoops:
    @pytest.mark.parametrize("hop_limit,expected", [(4, 2), (6, 4), (8, 8), (10, 16)])
    def test_replicating_loop_grows_by_powers_of_two(self, hop_limit, expected):
        assert expected_loop_replies(hop_limit, 2) == expected  # sanity on the oracle
        topo = build_loop_topology(replication_factor=2)
        delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=hop_limit))
        recs = classified(delivery)
        assert len(recs) == expected
        assert all(r.kind is ReplyKind.TIME_EXCEEDED for r in recs)
        assert {r.source for r in recs} == {addr("2001:db8:ffff:ffff::2")}
        assert all(r.embedded_target == addr("2001:db8:2::") for r in recs)

    def test_replies_stay_strictly_monotone_in_hop_limit(self):
        counts = [expected_loop_replies(h, 2) for h in range(4, 22, 2)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_plain_loop_yields_exactly_one_expiry(self):
        topo = build_loop_topology(replication_factor=1)
        delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=64))
        assert len(delivery.emissions) == 1
        (rec,) = classified(delivery)
        assert rec.kind is ReplyKind.TIME_EXCEEDED

    def test_used_subnet_is_answered_not_looped(self):
        topo = build_loop_topology(replication_factor=2)
        (rec,) = classified(Simulation(topo).inject(probe("2001:db8:1::")))
        assert rec.kind is ReplyKind.ECHO_REPLY
        assert rec.source == addr("2001:db8:ffff:ffff::2")  # customer link side

    def test_event_accounting_matches_the_tree(self):
        # visits for hop limit 6, replication 2 at the customer:
        # p(6)=1, c(5)=1, p(4)=2, c(3)=2, p(2)=4, c(1)=4 -> 14 events, 4 replies
        topo = build_loop_topology(replication_factor=2)
        delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=6))
        assert delivery.events == 14
        assert len(delivery.emissions) == 4
        assert not delivery.budget_exceeded

    def test_provider_side_replication_counts_match_the_recursion(self):
        # with replication at the provider the roles in the recursion swap
        def count_c(h):
            return 1 if h == 1 else count_p(h - 1)

        def count_p(h):
            return 1 if h == 1 else 3 * count_c(h - 1)

        topo = build_loop_topology(replication_factor=3, replicate_on="provider")
        for hop_limit in (4, 6, 8):
            delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=hop_limit))
            assert len(delivery.emissions) == count_p(hop_limit)

    def test_budget_cap_is_reported_not_silent(self):
        loop = build_loop_topology(replication_factor=2)
        topo = SimTopology(loop.routers, loop.entry_router, max_events=50)
        delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=40))
        assert delivery.budget_exceeded
        assert delivery.events == 50


class TestAliasedPrefixes:
    def test_every_address_in_an_aliased_prefix_answers_as_itself(self):
        topo, meta = build_gateway_fanout(n_inactive=1, m_active=1, aliased=1, seed=7)
        aprefix = meta["aliased_prefixes"][0]
        for suffix in (0, 1, 0xDEADBEEF):
            (rec,) = classified(Simulation(topo).inject(probe(aprefix.bits | suffix)))
            assert rec.kind is ReplyKind.ECHO_REPLY
            assert rec.source == (aprefix.bits | suffix)

    def test_alias_shadows_the_anycast_rule(self):
        # the all-zero-host address of an aliased prefix answers as itself,
        # not from an ingress interface, which is what gives aliases away
        topo, meta = build_gateway_fanout(n_inactive=1, m_active=1, aliased=1, seed=7)
        aprefix = meta["aliased_prefixes"][0]
        (rec,) = classified(Simulation(topo).inject(probe(aprefix.sra)))
        assert rec.source == aprefix.sra


class TestInputHandling:
    def test_garbage_is_rejected(self):
        topo = two_router_path()
        with pytest.raises(MalformedPacketError):
            Simulation(topo).inject(b"not a packet")

    def test_wrong_ip_version_is_rejected(self):
        topo = two_router_path()
        with pytest.raises(MalformedPacketError):
            Simulation(topo).inject(bytes([0x45]) + bytes(50))

    def test_non_echo_icmp_is_ignored_not_answered(self):
        topo = two_router_path()
        icmp = bytes([129, 0, 0, 0]) + bytes(20)  # an echo reply, not a request
        packet = build_ipv6_icmp(addr("2001:db8:10::9"), addr("2001:db8:20::"), 64, icmp)
        delivery = Simulation(topo).inject(packet)
        assert delivery.emissions == [] and delivery.events == 0


class TestDeterminism:
    def run_fanout(self):
        """Replies and final token states of one fresh SimTransport run."""
        topo, meta = build_gateway_fanout(n_inactive=3, m_active=3, seed=3)
        transport = SimTransport(topo)
        for p in meta["active_prefixes"] + meta["inactive_prefixes"]:
            transport.send(probe(p.sra))
        replies = []
        while (item := transport.receive(0)) is not None:
            replies.append(item)
        return replies, transport.sim.token_states()

    def test_identical_runs_produce_identical_replies_and_token_states(self):
        first = self.run_fanout()
        assert first[0]
        assert first == self.run_fanout()

    def test_token_states_name_every_router(self):
        _, states = self.run_fanout()
        assert set(states) == {"gw", "leaf0", "leaf1", "leaf2"}

    def test_budget_overrun_sets_the_delivery_flag(self):
        loop = build_loop_topology(replication_factor=2)
        topo = SimTopology(loop.routers, loop.entry_router, max_events=20)
        delivery = Simulation(topo).inject(probe("2001:db8:2::", hop_limit=40))
        assert delivery.budget_exceeded
        assert delivery.events == 20


class TestTopologyFiles:
    def test_round_trip_through_dict_and_disk(self, tmp_path):
        topo, _ = build_gateway_fanout(n_inactive=2, m_active=2, aliased=1, seed=5)
        data = topology_to_dict(topo)
        again = topology_to_dict(topology_from_dict(data))
        assert data == again
        path = tmp_path / "topo.json"
        save_topology(topo, path)
        loaded = load_topology(path)
        assert topology_to_dict(loaded) == data
        assert loaded.max_events == DEFAULT_MAX_EVENTS
        # files written before the unused "seed" key was dropped still load
        assert topology_to_dict(topology_from_dict({**data, "seed": 5})) == data

    def test_unknown_version_is_refused(self):
        data = topology_to_dict(build_loop_topology())
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            topology_from_dict(data)

    def test_field_types_are_checked(self):
        data = topology_to_dict(build_loop_topology())
        data["routers"][0]["error_rate"] = 10  # an integer is a number
        assert topology_from_dict(data).routers[0].error_rate == 10
        data["routers"][0]["sra_enabled"] = 0
        with pytest.raises(ValueError, match="sra_enabled: expected boolean, got 0"):
            topology_from_dict(data)
        data["routers"][0]["sra_enabled"] = True
        data["max_events"] = True
        with pytest.raises(ValueError, match="max_events: expected integer, got True"):
            topology_from_dict(data)

    def test_unknown_next_hop_is_refused(self):
        with pytest.raises(ValueError, match="unknown next hop"):
            SimTopology(
                routers=[
                    SimRouter(
                        id="r",
                        interfaces=[
                            Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))
                        ],
                        routes=[Route(parse_prefix("::/0"), "ghost")],
                    )
                ],
                entry_router="r",
            )

    def test_route_to_its_own_router_is_refused(self):
        with pytest.raises(ValueError, match="'r'.*points at itself"):
            SimTopology(
                routers=[
                    SimRouter(
                        id="r",
                        interfaces=[
                            Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))
                        ],
                        routes=[Route(parse_prefix("2001:db8:1::/48"), "r")],
                    )
                ],
                entry_router="r",
            )

    def test_missing_entry_router_is_refused(self):
        with pytest.raises(ValueError, match="entry router"):
            SimTopology(
                routers=[
                    SimRouter(
                        id="r",
                        interfaces=[
                            Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))
                        ],
                    )
                ],
                entry_router="nope",
            )

    def test_interface_outside_its_subnet_is_refused(self):
        with pytest.raises(ValueError, match="not inside"):
            Interface(addr("2001:db9::1"), parse_prefix("2001:db8::/64"))

    @pytest.mark.parametrize("value", [0, -5])
    def test_max_events_below_one_is_refused(self, value):
        data = topology_to_dict(build_loop_topology())
        data["max_events"] = value
        with pytest.raises(ValueError, match="max_events must be >= 1"):
            topology_from_dict(data)

    @pytest.mark.parametrize("field", ["error_rate", "error_burst"])
    @pytest.mark.parametrize("value", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_error_bucket_out_of_range_is_refused(self, field, value):
        data = topology_to_dict(build_loop_topology())
        data["routers"][0][field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            topology_from_dict(data)
        data["routers"][0][field] = 0  # zero is in range: no errors at all
        assert getattr(topology_from_dict(data).routers[0], field) == 0

    @pytest.mark.parametrize("field", ["error_rate", "error_burst"])
    def test_an_int_too_large_for_a_float_is_refused(self, field):
        message = f"router 'r': {field} must be a finite number >= 0"
        with pytest.raises(ValueError, match=message):
            SimTopology(
                [SimRouter(
                    "r", [Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))],
                    **{field: 10**400},
                )],
                "r",
            )
        data = topology_to_dict(build_loop_topology())
        data["routers"][0][field] = 10**400
        with pytest.raises(ValueError, match=f"{field} must be a finite number >= 0"):
            topology_from_dict(data)

    def test_a_router_without_knobs_loads_with_the_defaults_of_a_built_one(self, tmp_path):
        knobs = ("error_rate", "error_burst", "sra_enabled", "replication_factor", "sra_source")
        data = topology_to_dict(build_loop_topology())
        for rd in data["routers"]:
            for key in knobs:
                del rd[key]
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(data))
        for router in load_topology(path).routers:
            built = SimRouter(router.id, router.interfaces)
            assert [(getattr(router, k), type(getattr(router, k))) for k in knobs] == [
                (getattr(built, k), type(getattr(built, k))) for k in knobs
            ]

    def test_replication_below_one_is_refused(self):
        with pytest.raises(ValueError, match="replication_factor"):
            SimTopology(
                routers=[
                    SimRouter(
                        id="r",
                        interfaces=[
                            Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))
                        ],
                        replication_factor=0,
                    )
                ],
                entry_router="r",
            )


def small_fanout():
    return build_gateway_fanout(n_inactive=2, m_active=3, aliased=1, seed=5)[0]


class TestTopologyChecks:
    """A topology built in Python is refused as a file with the same values
    is, once, when it is built; a Simulation only compiles it."""

    @pytest.mark.parametrize(
        "field,value,kind",
        [("replication_factor", 2.0, "integer"), ("sra_enabled", 1, "boolean"),
         ("error_rate", True, "number")],
    )
    def test_a_value_of_the_wrong_json_type_is_refused_when_built(self, field, value, kind):
        router = SimRouter(
            id="r",
            interfaces=[Interface(addr("2001:db8::1"), parse_prefix("2001:db8::/64"))],
            **{field: value},
        )
        with pytest.raises(ValueError) as refused:
            SimTopology(routers=[router], entry_router="r")
        assert str(refused.value) == f"{field}: expected {kind}, got {value!r}"

    def test_a_topology_is_checked_once_when_built_and_never_by_a_simulation(
        self, tmp_path, monkeypatch
    ):
        topology = small_fanout()
        path = tmp_path / "fanout.json"
        save_topology(topology, path)
        checked = []
        check = netsim._check_topology

        def counted(topology):
            checked.append(topology)
            check(topology)

        monkeypatch.setattr(netsim, "_check_topology", counted)
        SimTransport(load_topology(path))
        assert len(checked) == 1
        Simulation(topology)
        assert len(checked) == 1

    def test_a_built_topology_is_checked_and_compiled_without_address_text(self, monkeypatch):
        """Neither the check of a Python-built fanout nor its Simulation
        formats or parses an address or prefix."""
        topology, _ = build_gateway_fanout(n_inactive=20, m_active=30, aliased=5, seed=3)
        calls = []
        for name in ("format_address", "parse_addresses", "parse_prefix_keys"):
            real = getattr(netsim, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(netsim, name, counted)
        SimTopology(
            topology.routers, topology.entry_router, topology.aliased_prefixes,
            topology.max_events,
        )
        Simulation(topology)
        assert calls == []


class TestSimTransport:
    def test_full_scan_over_the_simulator(self):
        topo, meta = build_gateway_fanout(
            n_inactive=2, m_active=3, seed=11, gw_error_rate=100.0, gw_error_burst=100.0
        )
        targets = [p.sra for p in meta["active_prefixes"]]
        targets += [p.sra for p in meta["inactive_prefixes"]]
        transport = SimTransport(topo, tick=0.001)
        records = list(run_scan(targets, transport, CFG))

        echoes = [r for r in records if r.kind is ReplyKind.ECHO_REPLY]
        errors = [r for r in records if r.kind is ReplyKind.DEST_UNREACHABLE]
        assert {r.source for r in echoes} == set(meta["leaf_sources"])
        assert {r.embedded_target for r in echoes} == {
            p.sra for p in meta["active_prefixes"]
        }
        assert {r.embedded_target for r in errors} == {
            p.sra for p in meta["inactive_prefixes"]
        }
        assert all(r.source == meta["gateway_source"] for r in errors)

    def test_timestamps_advance_by_one_tick_per_probe(self):
        topo, meta = build_gateway_fanout(n_inactive=0, m_active=3, seed=2)
        targets = [p.sra for p in meta["active_prefixes"]]
        transport = SimTransport(topo, tick=0.5)
        records = sorted(run_scan(targets, transport, CFG), key=lambda r: r.timestamp)
        assert [r.timestamp for r in records] == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("rate", [3.0, 7.0, 1000.0, 200_000.0, 1e7])
    def test_scan_on_the_transport_clock_never_sleeps_and_ignores_cooldown(
        self, monkeypatch, rate
    ):
        """Idle time moves the scan's clock, not the routers': two passes with
        any cooldown reply as with none, each wait taking a receive or two."""

        def no_sleep(seconds):
            raise AssertionError(f"slept for {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        topo, meta = build_gateway_fanout(
            n_inactive=4, m_active=3, seed=11, gw_error_rate=1.0, gw_error_burst=2.0
        )
        targets = [p.sra for p in meta["active_prefixes"] + meta["inactive_prefixes"]]
        runs = []
        for cooldown in (0.0, 1e-9, 0.1, 5.0, 123.456):
            transport = SimTransport(topo, tick=1 / rate)
            receive, waits = transport.receive, []

            def counted(timeout):
                item = receive(timeout)
                if item is None and timeout > 0:
                    waits.append(timeout)
                    assert len(waits) <= 4, "the clock does not reach its deadline"
                return item

            transport.receive = counted
            runs.append([
                list(run_scan(targets, transport, ProbeConfig(
                    secret=SECRET, send_rate=rate, cooldown=cooldown, scan_pass=scan_pass
                ), clock=transport.clock))
                for scan_pass in range(2)
            ])
            assert transport.clock() >= 2 * cooldown + (2 * len(targets) - 1) / rate
        assert all(run == runs[0] for run in runs)
        assert runs[0][0]

    def test_scan_without_a_clock_runs_on_the_transports(self, monkeypatch):
        """run_scan's default clock is the transport's own: a simulated scan
        never reads the wall clock, waits out its cooldown on the transport's
        clock, and replies as with that clock passed."""
        topo, meta = build_gateway_fanout(
            n_inactive=4, m_active=3, seed=11, gw_error_rate=1.0, gw_error_burst=2.0
        )
        targets = [p.sra for p in meta["active_prefixes"] + meta["inactive_prefixes"]]
        cfg = ProbeConfig(secret=SECRET, send_rate=1000.0, cooldown=0.2)
        transport = SimTransport(topo, tick=1e-3)
        expected = list(run_scan(targets, transport, cfg, clock=transport.clock))

        def no_wall_clock():
            raise AssertionError("time.monotonic was read")

        monkeypatch.setattr(time, "monotonic", no_wall_clock)
        transport = SimTransport(topo, tick=1e-3)
        assert list(run_scan(targets, transport, cfg)) == expected
        assert expected
        # Waiting on the wall clock would move the transport's on by every
        # idle receive of the wait.
        assert transport.clock() == pytest.approx(len(targets) / cfg.send_rate + cfg.cooldown)

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(0, 1e9) | st.integers(1, 10**6).map(lambda k: k * 0.1),
        wait=st.floats(0, 1e9) | st.floats(0, 1e-6),
    )
    def test_an_idle_wait_reaches_its_deadline_in_at_most_two_receives(self, start, wait):
        """run_scan waits as receive_until does: deadline minus the clock."""
        transport = SimTransport(LOOP)
        transport.receive(start)
        deadline = transport.clock() + wait
        receives = 0
        while (timeout := max(0.0, deadline - transport.clock())) > 0:
            assert transport.receive(timeout) is None
            receives += 1
            assert receives <= 2
        assert transport.clock() >= deadline

    def test_budget_hits_are_counted(self):
        loop = build_loop_topology(replication_factor=2)
        topo = SimTopology(loop.routers, loop.entry_router, max_events=30)
        transport = SimTransport(topo)
        transport.send(probe("2001:db8:2::", hop_limit=40))
        assert transport.budget_hits == 1

    def test_scan_yields_every_emission_in_order(self):
        # 200 probes into the loop's unused space, 32 replies each: the scan
        # must keep every reply although none is left when the last send ends.
        cfg = ProbeConfig(secret=SECRET, hop_limit=12, cooldown=0.0, send_rate=1e7)
        tick = 1e-7
        targets = [addr("2001:db8:2::") + (i << 64) for i in range(200)]
        sim = Simulation(build_loop_topology(replication_factor=2))
        expected, now = [], 0.0
        for target in targets:
            expected += classified(sim.inject(build_echo_request(target, cfg), now))
            now += tick
        transport = SimTransport(build_loop_topology(replication_factor=2), tick=tick)
        records = list(run_scan(targets, transport, cfg))
        assert len(expected) == 200 * 32
        assert records == expected
