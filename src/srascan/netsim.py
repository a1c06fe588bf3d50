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

Topology files are JSON; `topology_from_dict` checks each scalar field's
JSON type, so a quoted number or a `"no"` flag is refused, not misread.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .target_gen import Ipv6Prefix, PrefixTable, format_address, parse_address, parse_prefix
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


@dataclass(frozen=True)
class Interface:
    address: int
    subnet: Ipv6Prefix

    def __post_init__(self):
        if not self.subnet.covers_address(self.address):
            raise ValueError(
                f"interface address {format_address(self.address)} "
                f"not inside {self.subnet}"
            )


@dataclass(frozen=True)
class Route:
    prefix: Ipv6Prefix
    next_hop: str  # router id, "local", or "default"


@dataclass
class SimRouter:
    id: str
    interfaces: list[Interface]
    routes: list[Route] = field(default_factory=list)
    error_rate: float = 10.0   # Destination Unreachable / Time Exceeded per second
    error_burst: float = 10.0
    sra_enabled: bool = True
    replication_factor: int = 1
    sra_source: str = "ingress"  # or "first_interface"

    def __post_init__(self):
        if not self.interfaces:
            raise ValueError(f"router {self.id!r} needs at least one interface")
        for name, value in (("error_rate", self.error_rate), ("error_burst", self.error_burst)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"router {self.id!r}: {name} must be a finite number >= 0"
                )
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.sra_source not in ("ingress", "first_interface"):
            raise ValueError(f"unknown sra_source {self.sra_source!r}")

    @property
    def canonical_address(self) -> int:
        return self.interfaces[0].address


@dataclass
class SimTopology:
    routers: list[SimRouter]
    entry_router: str
    aliased_prefixes: list[Ipv6Prefix] = field(default_factory=list)
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self):
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        ids = [r.id for r in self.routers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate router ids")
        by_id = {r.id: r for r in self.routers}
        if self.entry_router not in by_id:
            raise ValueError(f"entry router {self.entry_router!r} not defined")
        for r in self.routers:
            for route in r.routes:
                nh = route.next_hop
                if nh not in (LOCAL, DEFAULT) and nh not in by_id:
                    raise ValueError(
                        f"router {r.id!r}: route to unknown next hop {nh!r}"
                    )
                if nh == r.id:
                    raise ValueError(
                        f"router {r.id!r}: route {route.prefix} points at itself"
                    )


@dataclass(frozen=True)
class Emission:
    """One packet handed back to the scanner at a virtual time."""

    time: float
    packet: bytes


@dataclass(slots=True)
class Delivery:
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


class _CompiledRouter:
    """One router's lookups, compiled from its interfaces and routes."""

    __slots__ = ("router", "bucket", "forward", "connected", "sra", "own")

    def __init__(self, router: SimRouter):
        self.router = router
        self.bucket = _TokenBucket(router.error_rate, router.error_burst)
        # Best (explicit, action) per prefix, keyed by (bits, length): an
        # explicit route beats a connected subnet of equal length; duplicates
        # keep the max next hop.
        best: dict[tuple[int, int], tuple[tuple[int, str], Ipv6Prefix]] = {}
        candidates = [(i.subnet, (0, LOCAL)) for i in router.interfaces]
        candidates += [(r.prefix, (1, r.next_hop)) for r in router.routes]
        for prefix, cand in candidates:
            key = (prefix.bits, prefix.length)
            if key not in best or cand > best[key][0]:
                best[key] = cand, prefix
        # DEFAULT resolves through the first /0 route in list order.
        fallback = next((r.next_hop for r in router.routes if r.prefix.length == 0), None)
        if fallback == DEFAULT:
            fallback = None
        # Forwarding action: router id, LOCAL, or None (no route).
        self.forward = PrefixTable(
            [
                (prefix, fallback if action == DEFAULT else action)
                for (_, action), prefix in best.values()
            ],
            default=None,
        )
        self.connected = PrefixTable((i.subnet, True) for i in router.interfaces)
        self.sra = (
            frozenset(i.subnet.sra for i in router.interfaces)
            if router.sra_enabled
            else frozenset()
        )
        self.own = frozenset(i.address for i in router.interfaces)


class Simulation:
    """Mutable token-bucket state over an immutable topology.

    The lookup tables are a snapshot of the topology taken at construction:
    edit routers, routes or aliased prefixes before building a Simulation.
    Each hop then costs one dict lookup per distinct prefix length.
    """

    def __init__(self, topology: SimTopology):
        self.topology = topology
        self._routers = {r.id: _CompiledRouter(r) for r in topology.routers}
        self._aliased = PrefixTable((p, True) for p in topology.aliased_prefixes)
        # Interface index a packet from `a` arrives on at `b`: the first
        # interface of `b` on a subnet `a` also has.  Pairs sharing no subnet
        # are absent and arrive on interface 0.
        on_subnet: dict[tuple[int, int], dict[str, int]] = {}
        for r in topology.routers:
            for n, iface in enumerate(r.interfaces):
                key = (iface.subnet.bits, iface.subnet.length)
                on_subnet.setdefault(key, {}).setdefault(r.id, n)
        self._ingress: dict[tuple[str, str], int] = {}
        for members in on_subnet.values():
            for a in members:
                for b, idx in members.items():
                    if a != b:
                        self._ingress[(a, b)] = min(idx, self._ingress.get((a, b), idx))

    def token_states(self) -> dict[str, float]:
        return {rid: round(n.bucket.tokens, 9) for rid, n in sorted(self._routers.items())}

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
        budget = self.topology.max_events
        events = 0
        seq = 0
        aliased = self._aliased.covers(dst)
        routers, heappop = self._routers, heapq.heappop
        # Every copy of one probe shares its bytes and its time, so an entry
        # is (router id, arrival order, hop limit, ingress interface index).
        heap = [(self.topology.entry_router, seq, packet[7], 0)]
        while heap:
            if events >= budget:
                return Delivery(emissions, events, True)
            rid, _, hop, ingress_idx = heappop(heap)
            events += 1
            node = routers[rid]
            router = node.router
            action = node.forward.lookup(dst)

            icmp = None  # an Echo Reply unless an error is built below
            if aliased and (action == LOCAL or node.connected.covers(dst)):
                reply_src = dst
            elif dst in node.sra:
                if router.sra_source == "ingress":
                    reply_src = router.interfaces[ingress_idx].address
                else:
                    reply_src = router.canonical_address
            elif dst in node.own:
                reply_src = dst
            elif action is not None and action != LOCAL and hop > 1:  # forward
                next_idx = self._ingress.get((rid, action), 0)
                for _ in range(router.replication_factor):
                    seq += 1
                    heapq.heappush(heap, (action, seq, hop - 1, next_idx))
                continue
            elif node.bucket.consume(now):
                if action is None:
                    head = b"\x01\x00"  # Destination Unreachable: no route
                elif action == LOCAL:
                    head = b"\x01\x03"  # Destination Unreachable: address unreachable
                else:
                    head, hop = b"\x03\x00", 0  # Time Exceeded: the hop limit would hit zero
                # Quote the request as this router holds it, cut so that the
                # error fits the IPv6 minimum MTU of 1280 bytes.
                quote = packet[:7] + bytes((hop,)) + packet[8:1232]
                reply_src, icmp = router.canonical_address, head + bytes(6) + quote
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


def topology_to_dict(topology: SimTopology) -> dict:
    return {
        "version": TOPOLOGY_FORMAT_VERSION,
        "entry_router": topology.entry_router,
        "max_events": topology.max_events,
        "aliased_prefixes": [str(p) for p in topology.aliased_prefixes],
        "routers": [
            {
                "id": r.id,
                "sra_enabled": r.sra_enabled,
                "sra_source": r.sra_source,
                "replication_factor": r.replication_factor,
                "error_rate": r.error_rate,
                "error_burst": r.error_burst,
                "interfaces": [
                    {"addr": format_address(i.address), "subnet": str(i.subnet)}
                    for i in r.interfaces
                ],
                "routes": [
                    {"prefix": str(rt.prefix), "next_hop": rt.next_hop} for rt in r.routes
                ],
            }
            for r in topology.routers
        ],
    }


_JSON_TYPES = {"number": (int, float), "integer": int, "boolean": bool, "string": str}


def _typed(obj: dict, key: str, kind: str, default=None):
    """obj[key] (or `default` if absent), refused unless its JSON type is `kind`.

    JSON's true and false load as Python bools, which are ints too, so a
    number or an integer must not be a bool and a boolean must be one.
    """
    value = obj[key] if default is None else obj.get(key, default)
    if not (
        isinstance(value, _JSON_TYPES[kind])
        and isinstance(value, bool) == (kind == "boolean")
    ):
        raise ValueError(f"{key}: expected {kind}, got {value!r}")
    return value


def topology_from_dict(data: dict) -> SimTopology:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    version = data.get("version")
    if version != TOPOLOGY_FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    # A link's subnet is written once per router on it; parse each text once.
    parsed: dict[str, Ipv6Prefix] = {}

    def prefix(text) -> Ipv6Prefix:
        if type(text) is not str:
            return parse_prefix(text)  # refused with parse_prefix's message
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_prefix(text)
        return value

    routers = []
    for rd in data["routers"]:
        routers.append(
            SimRouter(
                id=_typed(rd, "id", "string"),
                interfaces=[
                    Interface(
                        address=parse_address(i["addr"]),
                        subnet=prefix(i["subnet"]),
                    )
                    for i in rd["interfaces"]
                ],
                routes=[
                    Route(
                        prefix=prefix(rt["prefix"]),
                        next_hop=_typed(rt, "next_hop", "string"),
                    )
                    for rt in rd.get("routes", [])
                ],
                error_rate=_typed(rd, "error_rate", "number", 10.0),
                error_burst=_typed(rd, "error_burst", "number", 10.0),
                sra_enabled=_typed(rd, "sra_enabled", "boolean", True),
                replication_factor=_typed(rd, "replication_factor", "integer", 1),
                sra_source=_typed(rd, "sra_source", "string", "ingress"),
            )
        )
    return SimTopology(
        routers=routers,
        entry_router=_typed(data, "entry_router", "string"),
        aliased_prefixes=[prefix(s) for s in data.get("aliased_prefixes", [])],
        max_events=_typed(data, "max_events", "integer", DEFAULT_MAX_EVENTS),
    )


def load_topology(path) -> SimTopology:
    with open(path) as fh:
        return topology_from_dict(json.load(fh))


def save_topology(topology: SimTopology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")


# --- canned topology shapes -------------------------------------------------------


def build_gateway_fanout(
    n_inactive: int = 8,
    m_active: int = 8,
    seed: int = 0,
    gw_error_rate: float = 0.02,
    gw_error_burst: float = 5.0,
    leaf_error_rate: float = 1e-9,
    leaf_error_burst: float = 1.0,
    aliased: int = 0,
) -> tuple[SimTopology, dict]:
    """One rate-limited gateway fronting active leaf-router /64s and inactive space.

    Active subnets answer anycast probes via their leaf router (one distinct
    source per leaf); probes into inactive space can only produce errors at
    the gateway, whose token bucket drains.  Returns the topology plus a
    meta dict with the prefix lists and ground-truth source addresses.
    """
    import random as _random

    rnd = _random.Random(seed)
    base = parse_prefix("2001:db8::/32").bits
    blocks = rnd.sample(range(1, 0xFFFF), m_active * 2 + n_inactive + aliased)
    link_blocks = blocks[:m_active]
    active_blocks = blocks[m_active : 2 * m_active]
    inactive_blocks = blocks[2 * m_active : 2 * m_active + n_inactive]
    aliased_blocks = blocks[2 * m_active + n_inactive :]

    def subnet(group2: int, group3: int) -> Ipv6Prefix:
        return Ipv6Prefix(base | (group2 << 80) | (group3 << 64), 64)

    uplink = subnet(0, 0)
    gw_ifaces = [Interface(uplink.bits | 1, uplink)]
    gw_routes = []
    leaves = []
    active_prefixes = []
    expected_sources = []
    for i, (lb, ab) in enumerate(zip(link_blocks, active_blocks)):
        link = subnet(1, lb)
        active = subnet(2, ab)
        gw_ifaces.append(Interface(link.bits | 1, link))
        gw_routes.append(Route(active, f"leaf{i}"))
        leaf_link_addr = link.bits | 2
        leaves.append(
            SimRouter(
                id=f"leaf{i}",
                interfaces=[
                    Interface(leaf_link_addr, link),
                    Interface(active.bits | 1, active),
                ],
                error_rate=leaf_error_rate,
                error_burst=leaf_error_burst,
            )
        )
        active_prefixes.append(active)
        expected_sources.append(leaf_link_addr)
    aliased_prefixes = []
    for i, blk in enumerate(aliased_blocks):
        aprefix = subnet(4, blk)
        aliased_prefixes.append(aprefix)
        gw_ifaces.append(Interface(aprefix.bits | 1, aprefix))
    inactive_prefixes = [subnet(3, blk) for blk in inactive_blocks]
    gateway = SimRouter(
        id="gw",
        interfaces=gw_ifaces,
        routes=gw_routes,
        error_rate=gw_error_rate,
        error_burst=gw_error_burst,
    )
    topology = SimTopology(
        routers=[gateway] + leaves,
        entry_router="gw",
        aliased_prefixes=aliased_prefixes,
    )
    meta = {
        "active_prefixes": active_prefixes,
        "inactive_prefixes": inactive_prefixes,
        "aliased_prefixes": aliased_prefixes,
        "leaf_sources": expected_sources,
        "gateway_source": gw_ifaces[0].address,
    }
    return topology, meta


def build_loop_topology(
    covering: str = "2001:db8::/32",
    used: tuple[str, ...] = ("2001:db8:1::/48",),
    replication_factor: int = 1,
    replicate_on: str = "customer",
    error_rate: float = 1e6,
    error_burst: float = 1e6,
) -> SimTopology:
    """Provider/customer pair that loops unrouted covering-prefix space.

    The customer holds interfaces on the used subnets plus a default route
    back to the provider; the provider routes the whole covering prefix to
    the customer.  A probe into the unused remainder bounces between the two
    until its hop limit expires -- with replication_factor > 1 on one side,
    each bounce multiplies the packet.
    """
    if replicate_on not in ("customer", "provider"):
        raise ValueError("replicate_on must be customer or provider")
    uplink = parse_prefix("2001:db8:ffff:fffe::/64")
    link = parse_prefix("2001:db8:ffff:ffff::/64")
    provider = SimRouter(
        id="provider",
        interfaces=[Interface(uplink.bits | 1, uplink), Interface(link.bits | 1, link)],
        routes=[Route(parse_prefix(covering), "customer")],
        error_rate=error_rate,
        error_burst=error_burst,
        replication_factor=replication_factor if replicate_on == "provider" else 1,
    )
    customer = SimRouter(
        id="customer",
        interfaces=[Interface(link.bits | 2, link)]
        + [Interface(parse_prefix(u).bits | 1, parse_prefix(u)) for u in used],
        routes=[Route(parse_prefix("::/0"), "provider")],
        error_rate=error_rate,
        error_burst=error_burst,
        replication_factor=replication_factor if replicate_on == "customer" else 1,
    )
    return SimTopology(routers=[provider, customer], entry_router="provider")
