"""Deterministic IPv6 topology simulator for scan experiments.

Routers forward Echo Requests by longest-prefix match over explicit routes
plus implicit connected routes, decrementing the hop limit per hop.  Replies
come back to the scanner directly (reverse paths are not modeled; neither is
latency: every emission carries the virtual time its request was injected).

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
    Time Exceeded, all token-bucket limited.  Echo Replies are never
    limited.  A router with replication_factor r forwards r copies per
    traversal, which is how a routing loop turns into an amplifier.

Virtual time only advances between injected packets, so a token bucket
refills according to the probe send rate and the whole run is replayable.
"""

from __future__ import annotations

import heapq
import json
import time
from collections import deque
from dataclasses import dataclass, field

from .target_gen import Ipv6Prefix, PrefixTable, format_address, parse_address, parse_prefix
from .probe_engine import (
    ICMP6_ECHO_REQUEST,
    build_ipv6_icmp,
    parse_ipv6,
)

TOPOLOGY_FORMAT_VERSION = 1
DEFAULT_MAX_EVENTS = 10_000_000

LOCAL = "local"
DEFAULT = "default"


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
    """One packet handed back to the scanner."""

    time: float
    packet: bytes
    router_id: str
    icmp_type: int
    code: int
    source: int


@dataclass
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
            self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = max(self.stamp, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class _Pkt:
    src: int
    dst: int
    hop_limit: int
    raw: bytes  # original request bytes; hop-limit byte patched when quoted

    def quote(self) -> bytes:
        return self.raw[:7] + bytes([self.hop_limit]) + self.raw[8:]


class _CompiledRouter:
    """One router's lookups, compiled from its interfaces and routes."""

    __slots__ = ("router", "bucket", "forward", "connected", "sra", "own")

    def __init__(self, router: SimRouter):
        self.router = router
        self.bucket = _TokenBucket(router.error_rate, router.error_burst)
        # Best (length, explicit, action) per prefix: an explicit route beats
        # a connected subnet of equal length; duplicates keep the max next hop.
        best: dict[Ipv6Prefix, tuple[int, str]] = {}
        candidates = [(i.subnet, (0, LOCAL)) for i in router.interfaces]
        candidates += [(r.prefix, (1, r.next_hop)) for r in router.routes]
        for prefix, cand in candidates:
            if prefix not in best or cand > best[prefix]:
                best[prefix] = cand
        # DEFAULT resolves through the first /0 route in list order.
        fallback = next((r.next_hop for r in router.routes if r.prefix.length == 0), None)
        if fallback == DEFAULT:
            fallback = None
        # Forwarding action: router id, LOCAL, or None (no route).
        self.forward = PrefixTable(
            [
                (prefix, fallback if action == DEFAULT else action)
                for prefix, (_, action) in best.items()
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
        on_subnet: dict[Ipv6Prefix, dict[str, int]] = {}
        for r in topology.routers:
            for n, iface in enumerate(r.interfaces):
                on_subnet.setdefault(iface.subnet, {}).setdefault(r.id, n)
        self._ingress: dict[tuple[str, str], int] = {}
        for members in on_subnet.values():
            for a in members:
                for b, idx in members.items():
                    if a != b:
                        self._ingress[(a, b)] = min(idx, self._ingress.get((a, b), idx))

    def token_states(self) -> dict[str, float]:
        return {rid: round(n.bucket.tokens, 9) for rid, n in sorted(self._routers.items())}

    def inject(self, packet: bytes, now: float = 0.0) -> Delivery:
        """Run one Echo Request through the topology at virtual time `now`."""
        parsed = parse_ipv6(packet)
        if parsed is None:
            raise MalformedPacketError("not an IPv6 packet")
        src, dst, hop_limit, nh, payload = parsed
        if nh != 58 or len(payload) < 8:
            raise MalformedPacketError("not an ICMPv6 message")
        if payload[0] != ICMP6_ECHO_REQUEST:
            return Delivery([], 0, False)  # routers only answer probes

        emissions: list[Emission] = []
        budget = self.topology.max_events
        events = 0
        exceeded = False
        seq = 0
        pkt = _Pkt(src, dst, hop_limit, packet)
        aliased = self._aliased.covers(dst)
        heap: list[tuple[float, str, int, _Pkt, int]] = []
        heapq.heappush(heap, (now, self.topology.entry_router, seq, pkt, 0))

        def emit_echo(router_id: str, reply_src: int, request: _Pkt):
            icmp = bytes([129, 0, 0, 0]) + request.raw[44:]
            emissions.append(
                Emission(
                    time=now,
                    packet=build_ipv6_icmp(reply_src, request.src, 64, icmp),
                    router_id=router_id,
                    icmp_type=129,
                    code=0,
                    source=reply_src,
                )
            )

        def emit_error(node: _CompiledRouter, icmp_type: int, code: int, request: _Pkt):
            if not node.bucket.consume(now):
                return
            quote = request.quote()[:1232]
            icmp = bytes([icmp_type, code, 0, 0]) + bytes(4) + quote
            reply_src = node.router.canonical_address
            emissions.append(
                Emission(
                    time=now,
                    packet=build_ipv6_icmp(reply_src, request.src, 64, icmp),
                    router_id=node.router.id,
                    icmp_type=icmp_type,
                    code=code,
                    source=reply_src,
                )
            )

        while heap:
            if events >= budget:
                exceeded = True
                break
            _, rid, _, pkt, ingress_idx = heapq.heappop(heap)
            events += 1
            node = self._routers[rid]
            router = node.router
            action = node.forward.lookup(dst)

            if aliased and (action == LOCAL or node.connected.covers(dst)):
                emit_echo(rid, dst, pkt)
                continue
            if dst in node.sra:
                if router.sra_source == "ingress":
                    reply_src = router.interfaces[ingress_idx].address
                else:
                    reply_src = router.canonical_address
                emit_echo(rid, reply_src, pkt)
                continue
            if dst in node.own:
                emit_echo(rid, dst, pkt)
                continue
            if action is None:
                emit_error(node, 1, 0, pkt)  # no route to destination
                continue
            if action == LOCAL:
                emit_error(node, 1, 3, pkt)  # address unreachable
                continue
            if pkt.hop_limit <= 1:  # would hit zero on this forward
                emit_error(node, 3, 0, _Pkt(pkt.src, pkt.dst, 0, pkt.raw))
                continue
            forwarded = _Pkt(pkt.src, pkt.dst, pkt.hop_limit - 1, pkt.raw)
            next_idx = self._ingress.get((rid, action), 0)
            for _ in range(router.replication_factor):
                seq += 1
                heapq.heappush(heap, (now, action, seq, forwarded, next_idx))

        return Delivery(emissions, events, exceeded)


def deliver(topology: SimTopology, packet: bytes, now: float = 0.0) -> Delivery:
    """One-shot delivery against fresh token-bucket state."""
    return Simulation(topology).inject(packet, now)


class SimTransport:
    """probe_engine.Transport backed by a Simulation and a virtual clock.

    Each send advances virtual time by one tick (the probe interval), so
    router token buckets see the same pacing a live scan would produce.
    Idle time does not advance it.  A send queues every reply the probe
    causes before it returns, so nothing arrives while the caller waits:
    receive pops the queue, and on an empty queue returns None at once for
    a zero timeout and after sleeping `timeout` otherwise.  Drive it from
    one thread.
    """

    def __init__(self, topology: SimTopology, tick: float = 1.0 / 200_000):
        self.sim = Simulation(topology)
        self.tick = tick
        self.clock = 0.0
        self.budget_hits = 0
        self._rx: deque[tuple[bytes, float]] = deque()

    def send(self, packet: bytes) -> None:
        delivery = self.sim.inject(packet, self.clock)
        self.clock += self.tick
        if delivery.budget_exceeded:
            self.budget_hits += 1
        self._rx.extend((em.packet, em.time) for em in delivery.emissions)

    def receive(self, timeout: float) -> tuple[bytes, float] | None:
        if self._rx:
            return self._rx.popleft()
        if timeout > 0:
            time.sleep(timeout)
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


def topology_from_dict(data: dict) -> SimTopology:
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    version = data.get("version")
    if version != TOPOLOGY_FORMAT_VERSION:
        raise ValueError(f"unsupported topology format version {version!r}")
    routers = []
    for rd in data["routers"]:
        routers.append(
            SimRouter(
                id=rd["id"],
                interfaces=[
                    Interface(
                        address=parse_address(i["addr"]),
                        subnet=parse_prefix(i["subnet"]),
                    )
                    for i in rd["interfaces"]
                ],
                routes=[
                    Route(prefix=parse_prefix(rt["prefix"]), next_hop=rt["next_hop"])
                    for rt in rd.get("routes", [])
                ],
                error_rate=rd.get("error_rate", 10.0),
                error_burst=rd.get("error_burst", 10.0),
                sra_enabled=rd.get("sra_enabled", True),
                replication_factor=rd.get("replication_factor", 1),
                sra_source=rd.get("sra_source", "ingress"),
            )
        )
    return SimTopology(
        routers=routers,
        entry_router=data["entry_router"],
        aliased_prefixes=[parse_prefix(s) for s in data.get("aliased_prefixes", [])],
        max_events=data.get("max_events", DEFAULT_MAX_EVENTS),
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
