"""Deterministic IPv6 topology simulator for scan experiments.

Routers forward Echo Requests by longest-prefix match over explicit routes
plus implicit connected routes, decrementing the hop limit per hop.  Replies
come back to the scanner directly (reverse paths are not modeled; neither is
latency).  An Emission is just the reply's bytes and the virtual time its
request was injected at; whatever else a test wants to know about a reply,
it reads from the bytes.  Only the hop limit differs between the copies of
one probe in flight, so that is all the simulator carries per hop.

Per router visit, in order:

 1. destination inside an aliased prefix attached here -> Echo Reply sourced
    from the destination itself (the aliased-network signature, shadowing
    the anycast rule);
 2. destination equals the subnet-router anycast address of a connected
    subnet and the router answers anycast -> Echo Reply, sourced from the
    ingress interface (or the first interface, per `sra_source`);
 3. destination equals one of the router's own interface addresses -> Echo
    Reply sourced from it;
 4. otherwise route: no match -> Destination Unreachable code 0; local
    delivery with no such host -> code 3; hop limit expiring on a forward ->
    Time Exceeded, all token-bucket limited.  An error quotes the request
    with the hop limit it arrived with (0 for Time Exceeded), truncated to
    1232 bytes.  Echo Replies echo the request's body and are never
    limited.  A router with replication_factor r forwards r copies per
    traversal, which is how a routing loop turns into an amplifier.

Virtual time only advances between injected packets, so a token bucket
refills according to the probe send rate and the whole run is replayable.

A topology has one form, a SimTopology of SimRouters, whether it is built
in Python or loaded from a JSON file, and both are frozen NamedTuples.  One
checker, `_check_topology`, refuses what no simulation can use (a quoted
number or a `"no"` flag is refused, not misread) once, when a SimTopology
is built, and one compiler, `_compile`, turns its routers into the lookups
a Simulation runs on.

A simulated scan imports this module, and only reads a topology file, so
the writer (`topology_to_dict`, `save_topology`) and the canned shapes
(`build_gateway_fanout`, `build_loop_topology`) live in `topologies`.
Those four names still resolve here: the first read of one imports
`topologies`.
"""

from __future__ import annotations

import heapq
import json
import operator
import sys
from collections import deque
from itertools import accumulate, repeat
from typing import NamedTuple

from .addresses import (
    Ipv6Prefix,
    PrefixTable,
    format_address,
    parse_addresses,
    parse_prefix_keys,
)
from .probe_engine import ICMP6_ECHO_REQUEST, IPV6_HEADER_LEN, build_ipv6_icmp

TOPOLOGY_FORMAT_VERSION = 1
DEFAULT_MAX_EVENTS = 10_000_000

LOCAL = "local"
DEFAULT = "default"

# Looked up once: on a per-packet path, reading the classmethod off `int`
# costs about as much as the conversion itself.
_from_bytes = int.from_bytes


class MalformedPacketError(ValueError):
    """The injected packet is not an ICMPv6-over-IPv6 frame."""


def _outside(address: int, subnet: Ipv6Prefix) -> ValueError:
    return ValueError(f"interface address {format_address(address)} not inside {subnet}")


class _Interface(NamedTuple):
    address: int
    subnet: Ipv6Prefix


class Interface(_Interface):
    __slots__ = ()

    def __new__(cls, address: int, subnet: Ipv6Prefix):
        if not subnet.covers_address(address):
            raise _outside(address, subnet)
        return tuple.__new__(cls, (address, subnet))


class Route(NamedTuple):
    prefix: Ipv6Prefix
    next_hop: str  # router id, "local", or "default"


class SimRouter(NamedTuple):
    """One router of a topology: its interfaces and routes, and its knobs,
    which a topology file defaults from `_field_defaults`: its Destination
    Unreachable / Time Exceeded rate per second and burst, whether it
    answers its SRA, how many copies it forwards, and the interface its SRA
    replies come from (one of _SRA_SOURCES).  The SimTopology holding it
    checks it.  Given its interfaces and routes as tuples, it is frozen."""

    id: str
    interfaces: tuple[Interface, ...]
    routes: tuple[Route, ...] = ()
    error_rate: float = 10.0
    error_burst: float = 10.0
    sra_enabled: bool = True
    replication_factor: int = 1
    sra_source: str = "ingress"

    @property
    def canonical_address(self) -> int:
        return self.interfaces[0].address


class _SimTopology(NamedTuple):
    routers: tuple[SimRouter, ...]
    entry_router: str
    aliased_prefixes: tuple[Ipv6Prefix, ...] = ()
    max_events: int = DEFAULT_MAX_EVENTS


class SimTopology(_SimTopology):
    """Routers, the router probes enter at, aliased prefixes and an event budget.

    A frozen value, checked once, when it is built: it is refused with the
    message a file holding the same values gets.  `_replace` skips that
    check, so build a changed topology through the constructor.
    """

    __slots__ = ()

    def __new__(cls, routers, entry_router, aliased_prefixes=(), max_events=DEFAULT_MAX_EVENTS):
        self = tuple.__new__(
            cls, (tuple(routers), entry_router, tuple(aliased_prefixes), max_events)
        )
        _check_topology(self)
        return self


class Emission(NamedTuple):
    """One packet handed back to the scanner at a virtual time."""

    time: float
    packet: bytes


class Delivery(NamedTuple):
    emissions: list[Emission]
    events: int
    budget_exceeded: bool


class _TokenBucket:
    def __init__(self, rate: float, burst: float):
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self.stamp = 0.0

    def consume(self, now: float) -> bool:
        if self.rate <= 0:
            return False
        if now > self.stamp:
            tokens = self.tokens + (now - self.stamp) * self.rate
            self.tokens = tokens if tokens < self.burst else self.burst
            self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _Router:
    """One router's lookups, as `_compile` builds them for a Simulation.

    `sources[i]` answers an anycast probe that arrived on interface i: that
    interface's address, or the first interface's for "first_interface".
    `sources[0]` is the router's canonical address either way.
    """

    __slots__ = ("forward", "connected", "sra", "own", "sources", "replication", "rate", "burst")

    def __init__(self, forward, connected, sra, own, sources, replication, rate, burst):
        self.forward = forward  # router id, LOCAL, or None (no route)
        self.connected = connected
        self.sra = sra
        self.own = own
        self.sources = sources
        self.replication = replication
        self.rate = rate
        self.burst = burst


class Simulation:
    """Mutable token-bucket state over the lookups compiled from a topology.

    A SimTopology is checked when it is built, so a Simulation only
    compiles it.  Each hop then costs one dict lookup per distinct prefix
    length.
    """

    def __init__(self, topology: SimTopology):
        self._routers, self._ingress = _compile(topology.routers)
        self._buckets = {
            rid: _TokenBucket(node.rate, node.burst) for rid, node in self._routers.items()
        }
        self._aliased = PrefixTable((p, True) for p in topology.aliased_prefixes)
        self._entry_router = topology.entry_router
        self._budget = topology.max_events

    def token_states(self) -> dict[str, float]:
        return {rid: round(b.tokens, 9) for rid, b in sorted(self._buckets.items())}

    def inject(self, packet: bytes, now: float = 0.0) -> Delivery:
        """Run one Echo Request through the topology at virtual time `now`.

        A packet that `parse_ipv6` refuses, or that is not an ICMPv6 message
        of at least 8 bytes, raises MalformedPacketError.  Only the header
        fields the routing rules read are decoded; the source is read when a
        reply is addressed to it.
        """
        size = len(packet)
        if (
            size < IPV6_HEADER_LEN
            or packet[0] >> 4 != 6
            or size < IPV6_HEADER_LEN + (payload_len := packet[4] << 8 | packet[5])
        ):
            raise MalformedPacketError("not an IPv6 packet")
        if packet[6] != 58 or payload_len < 8:
            raise MalformedPacketError("not an ICMPv6 message")
        if packet[IPV6_HEADER_LEN] != ICMP6_ECHO_REQUEST:
            return Delivery([], 0, False)  # routers only answer probes
        dst = _from_bytes(packet[24:40], "big")

        emissions: list[Emission] = []
        budget = self._budget
        events = 0
        seq = 0
        aliased = self._aliased.covers(dst)
        routers, buckets, heappop = self._routers, self._buckets, heapq.heappop
        # Every copy of one probe shares its bytes and its time, so an entry
        # is (router id, arrival order, hop limit, ingress interface index).
        heap = [(self._entry_router, seq, packet[7], 0)]
        while heap:
            if events >= budget:
                return Delivery(emissions, events, True)
            rid, _, hop, ingress_idx = heappop(heap)
            events += 1
            node = routers[rid]
            action = node.forward.lookup(dst)

            icmp = None  # an Echo Reply unless an error is built below
            if aliased and (action == LOCAL or node.connected.covers(dst)):
                reply_src = dst
            elif dst in node.sra:
                reply_src = node.sources[ingress_idx]
            elif dst in node.own:
                reply_src = dst
            elif action is not None and action != LOCAL and hop > 1:  # forward
                next_idx = self._ingress.get((rid, action), 0)
                # The copies share a router id and have consecutive arrival
                # numbers, so at most the first `budget - events` of them are
                # ever popped; one more keeps the budget hit reported.
                for _ in range(min(node.replication, budget - events + 1)):
                    seq += 1
                    heapq.heappush(heap, (action, seq, hop - 1, next_idx))
                continue
            elif buckets[rid].consume(now):
                if action is None:
                    head = b"\x01\x00"  # Destination Unreachable: no route
                elif action == LOCAL:
                    head = b"\x01\x03"  # Destination Unreachable: address unreachable
                else:
                    head, hop = b"\x03\x00", 0  # Time Exceeded: the hop limit would hit zero
                # Quote the request as this router holds it, cut so that the
                # error fits the IPv6 minimum MTU of 1280 bytes.
                quote = packet[:7] + bytes((hop,)) + packet[8:1232]
                reply_src, icmp = node.sources[0], head + bytes(6) + quote
            else:
                continue
            if icmp is None:
                icmp = b"\x81\x00\x00\x00" + packet[44:]  # Echo Reply: the request's body
            src = _from_bytes(packet[8:24], "big")
            emissions.append(Emission(now, build_ipv6_icmp(reply_src, src, 64, icmp)))

        return Delivery(emissions, events, False)


class SimTransport:
    """probe_engine.Transport backed by a Simulation, with its own clock.

    Each send injects its probe at `send_time` and moves that on by one
    tick (the probe interval), so router token buckets see the same pacing
    a live scan would produce; idle time does not reach them.  `clock` is
    the scan's time for run_scan: a send moves it one tick, and a receive
    that finds nothing queued moves it on by the timeout instead of
    sleeping.  A send queues every reply the probe causes before it returns,
    so nothing can arrive while the caller waits.  Drive it from one thread.
    """

    def __init__(self, topology: SimTopology, tick: float = 1.0 / 200_000):
        self.sim = Simulation(topology)
        self.tick = tick
        self.send_time = 0.0
        self._now = 0.0
        self.budget_hits = 0
        self._rx: deque[tuple[bytes, float]] = deque()

    def clock(self) -> float:
        return self._now

    def send(self, packet: bytes) -> None:
        delivery = self.sim.inject(packet, self.send_time)
        self.send_time += self.tick
        self._now += self.tick
        if delivery.budget_exceeded:
            self.budget_hits += 1
        if delivery.emissions:
            self._rx.extend((em.packet, em.time) for em in delivery.emissions)

    def receive(self, timeout: float) -> tuple[bytes, float] | None:
        if self._rx:
            return self._rx.popleft()
        # run_scan waits deadline - clock().  That difference is exact once
        # the clock is within a factor of two of the deadline (Sterbenz), and
        # one wait brings it there, so a second wait at most lands on it.
        self._now += timeout
        return None


# --- topology files -------------------------------------------------------------


_JSON_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str}
# The types json.load gives each kind: a column of only these needs no other check.
_LOADED_TYPES = {"number": {int, float}, "integer": {int}, "boolean": {bool}, "string": {str}}


def _check_type(key: str, value, kind: str):
    """`value`, refused unless its JSON type is `kind`.

    JSON's true and false load as Python bools, which are ints too, so a
    number or an integer must not be a bool and a boolean must be one.
    """
    if not (
        isinstance(value, _JSON_TYPES[kind])
        and isinstance(value, bool) == (kind == "boolean")
    ):
        raise ValueError(f"{key}: expected {kind}, got {value!r}")
    return value


def _typed_column(values, key: str, kind: str) -> None:
    """Refuse any of `values` whose JSON type is not `kind`: one set test
    when every value has a type json.load gives that kind."""
    if not _LOADED_TYPES[kind].issuperset(map(type, values)):
        for value in values:
            _check_type(key, value, kind)


_SRA_SOURCES = ("ingress", "first_interface")


def _check_router(rid, n_interfaces, error_rate, error_burst, replication_factor, sra_source):
    """Name the fault in a router's values that `_check_topology` found."""
    if not n_interfaces:
        raise ValueError(f"router {rid!r} needs at least one interface")
    for name, value in (("error_rate", error_rate), ("error_burst", error_burst)):
        # Compared, not passed to math.isfinite, which overflows on an int
        # too large for a float.
        if not 0 <= value <= sys.float_info.max:
            raise ValueError(f"router {rid!r}: {name} must be a finite number >= 0")
    if replication_factor < 1:
        raise ValueError("replication_factor must be >= 1")
    if sra_source not in _SRA_SOURCES:
        raise ValueError(f"unknown sra_source {sra_source!r}")


def _check_topology(topology: SimTopology) -> None:
    """Refuse a topology that no simulation can use: every check a
    SimTopology gets when it is built, loaded or in Python.

    Each check runs over a column of the routers' fields: the JSON type of
    every scalar field, then the event budget, the router ids, the entry
    router, each router's knob ranges and its next hops.  A topology with
    one fault is refused with the message that fault always had; with
    several, any of them may be named.
    """
    routers = topology.routers
    ids, interfaces, tables, rates, bursts, sra, factors, sources = (
        zip(*routers) if routers else [()] * len(SimRouter._fields)
    )
    _typed_column(ids, "id", "string")
    _typed_column(rates, "error_rate", "number")
    _typed_column(bursts, "error_burst", "number")
    _typed_column(sra, "sra_enabled", "boolean")
    _typed_column(factors, "replication_factor", "integer")
    _typed_column(sources, "sra_source", "string")
    routes = [(rid, route) for rid, table in zip(ids, tables) for route in table]
    hops = [hop for _, (_, hop) in routes]
    _typed_column(hops, "next_hop", "string")
    entry_router = _check_type("entry_router", topology.entry_router, "string")
    if _check_type("max_events", topology.max_events, "integer") < 1:
        raise ValueError("max_events must be >= 1")

    known = set(ids)
    if len(known) != len(ids):
        raise ValueError("duplicate router ids")
    if entry_router not in known:
        raise ValueError(f"entry router {entry_router!r} not defined")
    for rid, own, rate, burst, factor, source in zip(
        ids, interfaces, rates, bursts, factors, sources
    ):
        # _check_router decides these ranges the same way, and names the fault.
        if not (
            own
            and 0 <= rate <= sys.float_info.max
            and 0 <= burst <= sys.float_info.max
            and factor >= 1
            and source in _SRA_SOURCES
        ):
            _check_router(rid, len(own), rate, burst, factor, source)
    known.update((LOCAL, DEFAULT))
    if not known.issuperset(hops) or any(map(operator.eq, hops, [rid for rid, _ in routes])):
        for rid, (prefix, hop) in routes:
            if hop not in known:
                raise ValueError(f"router {rid!r}: route to unknown next hop {hop!r}")
            if hop == rid:
                raise ValueError(f"router {rid!r}: route {prefix} points at itself")


def _forward(connected: tuple[Ipv6Prefix, ...], routes: tuple[Route, ...]) -> PrefixTable:
    """A router's forwarding table: router id, LOCAL, or None (no route).

    An explicit route beats a connected subnet of equal length, duplicates
    keep the max next hop, and DEFAULT resolves through the first /0 route
    in list order.
    """
    explicit: dict[Ipv6Prefix, str] = {}
    for prefix, hop in routes:
        if prefix not in explicit or hop > explicit[prefix]:
            explicit[prefix] = hop
    fallback = next((hop for prefix, hop in routes if prefix.length == 0), None)
    if fallback == DEFAULT:
        fallback = None
    best: dict[Ipv6Prefix, str | None] = dict.fromkeys(connected, LOCAL)
    for prefix, hop in explicit.items():
        best[prefix] = fallback if hop == DEFAULT else hop
    by_length: dict[int, dict[int, str | None]] = {}
    for (bits, length), action in best.items():
        by_length.setdefault(length, {})[bits] = action
    return PrefixTable.grouped(by_length, default=None)


def _compile(
    routers: tuple[SimRouter, ...],
) -> tuple[dict[str, _Router], dict[tuple[str, str], int]]:
    """Every checked router's lookups, by id, and the ingress index, from one
    walk over the routers.

    An Ipv6Prefix is a `(bits, length)` tuple, so subnets and route
    prefixes serve as dict keys as they are.  Interface index a packet from
    `a` arrives on at `b`: the first interface of `b` on a subnet `a` also
    has.  Pairs sharing no subnet are absent and arrive on interface 0.
    """
    routers_by_id: dict[str, _Router] = {}
    ingress: dict[tuple[str, str], int] = {}
    on_subnet: dict[Ipv6Prefix, dict[str, int]] = {}
    for rid, interfaces, routes, rate, burst, sra_enabled, replication, sra_source in routers:
        own, connected = zip(*interfaces)
        attached: dict[int, dict[int, str]] = {}
        for index, subnet in enumerate(connected):
            attached.setdefault(subnet[1], {})[subnet[0]] = LOCAL
            members = on_subnet.setdefault(subnet, {})
            if rid not in members:
                for a, first in members.items():
                    ingress[(rid, a)] = min(first, ingress.get((rid, a), first))
                    ingress[(a, rid)] = min(index, ingress.get((a, rid), index))
                members[rid] = index
        # Only `covers` reads the attached table, so it doubles as the
        # forwarding table of a router without routes.
        connected_table = PrefixTable.grouped(attached, default=None)
        routers_by_id[rid] = _Router(
            _forward(connected, routes) if routes else connected_table,
            connected_table,
            frozenset([bits for bits, _ in connected]) if sra_enabled else frozenset(),
            frozenset(own),
            own if sra_source == "ingress" else [own[0]] * len(own),
            replication,
            rate,
            burst,
        )
    return routers_by_id, ingress


def topology_from_dict(data: dict) -> SimTopology:
    """The topology that a file's JSON holds, refused as SimTopology refuses
    one, with the message its parser gives a bad address or prefix text, or
    with `missing key 'name'` where a required key is absent.
    """
    try:
        return _topology_from_dict(data)
    except KeyError as exc:
        raise ValueError(f"missing key {exc.args[0]!r}") from None


def _topology_from_dict(data: dict) -> SimTopology:
    """`topology_from_dict`, with a missing key raised as a KeyError.

    Every interface address and every distinct prefix text is parsed in one
    C chain (`parse_addresses`, `parse_prefix_keys`), and each interface is
    checked to lie in its subnet.  The Interface, Route and SimRouter
    tuples are then built from those checked values and the file's columns
    without running a constructor; SimTopology's checker makes the rest.
    """
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    version = data.get("version")
    if type(version) is not int or version != TOPOLOGY_FORMAT_VERSION:  # not true, not 1.0
        raise ValueError(f"unsupported topology format version {version!r}")
    rows = data["routers"]
    interface_rows = [rd["interfaces"] for rd in rows]
    route_rows = [rd.get("routes", []) for rd in rows]
    addresses = parse_addresses([i["addr"] for group in interface_rows for i in group])
    subnet_texts = [i["subnet"] for group in interface_rows for i in group]
    route_texts = [rt["prefix"] for group in route_rows for rt in group]
    aliased_texts = list(data.get("aliased_prefixes", []))

    texts = subnet_texts + route_texts + aliased_texts
    try:
        texts = list(dict.fromkeys(texts))
    except TypeError:
        pass  # an unhashable item, which parse_prefix_keys refuses by name
    prefixes = dict(zip(texts, map(tuple.__new__, repeat(Ipv6Prefix), parse_prefix_keys(texts))))
    subnets = list(map(prefixes.__getitem__, subnet_texts))
    for address, (bits, length) in zip(addresses, subnets):
        if (address ^ bits) >> (128 - length):
            raise _outside(address, Ipv6Prefix(bits, length))
    interfaces = tuple(map(tuple.__new__, repeat(Interface), zip(addresses, subnets)))
    routes = tuple(map(tuple.__new__, repeat(Route), zip(
        map(prefixes.__getitem__, route_texts),
        [rt["next_hop"] for group in route_rows for rt in group],
    )))
    ids = [rd["id"] for rd in rows]
    defaults = SimRouter._field_defaults
    # The knobs are the fields after id, interfaces and routes.
    knobs = [[rd.get(key, defaults[key]) for rd in rows] for key in SimRouter._fields[3:]]
    routers = map(tuple.__new__, repeat(SimRouter), zip(
        ids, _cut(interfaces, interface_rows), _cut(routes, route_rows), *knobs
    ))
    return SimTopology(
        routers,
        data["entry_router"],
        [prefixes[text] for text in aliased_texts],
        data.get("max_events", DEFAULT_MAX_EVENTS),
    )


def _cut(items: tuple, groups: list):
    """`items` cut into consecutive tuples, as long as each of `groups`."""
    bounds = list(accumulate(map(len, groups), initial=0))
    return map(items.__getitem__, map(slice, bounds, bounds[1:]))


def load_topology(path) -> SimTopology:
    with open(path) as fh:
        return topology_from_dict(json.load(fh))


# The canned shapes and the writer live in `topologies`, which a scan never
# imports; netsim still answers for their names (PEP 562).
_TOPOLOGY_BUILDERS = frozenset(
    {"build_gateway_fanout", "build_loop_topology", "save_topology", "topology_to_dict"}
)


def __getattr__(name: str):
    if name in _TOPOLOGY_BUILDERS:
        from . import topologies

        return getattr(topologies, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
