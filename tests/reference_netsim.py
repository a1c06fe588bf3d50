"""Linear-scan reference for srascan.netsim.Simulation, used by tests only.

Every hop re-scans the router's interfaces and routes, the aliased
prefixes and the interface addresses, and the ingress map is built over
all router pairs.  It is slow and obviously faithful to the rules in the
netsim module docstring; the compiled Simulation must agree with it on
every emission, event count, budget flag and token state.  Its token
buckets are its own, so a fault in netsim's is not copied here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from srascan.netsim import (
    DEFAULT,
    LOCAL,
    Delivery,
    Emission,
    MalformedPacketError,
    SimRouter,
    SimTopology,
)
from srascan.probe_engine import ICMP6_ECHO_REQUEST, build_ipv6_icmp, parse_ipv6


@dataclass(frozen=True)
class _Pkt:
    src: int
    dst: int
    hop_limit: int
    raw: bytes  # original request bytes; hop-limit byte patched when quoted

    def quote(self) -> bytes:
        return self.raw[:7] + bytes([self.hop_limit]) + self.raw[8:]


class Bucket:
    """A router's error budget: it starts full at `burst` tokens, refills at
    `rate` per second of virtual time up to `burst`, and each error spends a
    token.  A router whose rate is 0 sends no errors at all."""

    def __init__(self, rate: float, burst: float):
        self.rate, self.burst = rate, burst
        self.tokens = float(burst)
        self.last = 0.0  # virtual time never runs backwards

    def consume(self, now: float) -> bool:
        if self.rate == 0:
            return False
        self.tokens = min(self.burst, self.tokens + self.rate * (now - self.last))
        self.last = now
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        return True


def ingress_map(topology: SimTopology) -> dict[tuple[str, str], int]:
    """Interface index a packet from `a` arrives on at `b`: shared subnet."""
    out = {}
    for a in topology.routers:
        a_subnets = {(i.subnet.bits, i.subnet.length) for i in a.interfaces}
        for b in topology.routers:
            if a.id == b.id:
                continue
            idx = 0
            for n, iface in enumerate(b.interfaces):
                if (iface.subnet.bits, iface.subnet.length) in a_subnets:
                    idx = n
                    break
            out[(a.id, b.id)] = idx
    return out


def lpm(router: SimRouter, dst: int) -> str | None:
    """Resolved forwarding action: router id, LOCAL, or None (no route)."""
    best = None  # (length, explicit, action)
    for iface in router.interfaces:
        if iface.subnet.covers_address(dst):
            cand = (iface.subnet.length, 0, LOCAL)
            if best is None or cand > best:
                best = cand
    for route in router.routes:
        if route.prefix.covers_address(dst):
            cand = (route.prefix.length, 1, route.next_hop)
            if best is None or cand > best:
                best = cand
    if best is None:
        return None
    action = best[2]
    if action == DEFAULT:
        fallback = next((r.next_hop for r in router.routes if r.prefix.length == 0), None)
        if fallback in (None, DEFAULT):
            return None
        return fallback
    return action


class ReferenceSimulation:
    def __init__(self, topology: SimTopology):
        self.topology = topology
        self._by_id = {r.id: r for r in topology.routers}
        self._buckets = {
            r.id: Bucket(r.error_rate, r.error_burst) for r in topology.routers
        }
        self._ingress = ingress_map(topology)

    def token_states(self) -> dict[str, float]:
        return {rid: round(b.tokens, 9) for rid, b in sorted(self._buckets.items())}

    def inject(self, packet: bytes, now: float = 0.0) -> Delivery:
        parsed = parse_ipv6(packet)
        if parsed is None:
            raise MalformedPacketError("not an IPv6 packet")
        src, dst, hop_limit, nh, payload = parsed
        if nh != 58 or len(payload) < 8:
            raise MalformedPacketError("not an ICMPv6 message")
        if payload[0] != ICMP6_ECHO_REQUEST:
            return Delivery([], 0, False)

        emissions: list[Emission] = []
        events = 0
        exceeded = False
        seq = 0
        heap = [(now, self.topology.entry_router, seq, _Pkt(src, dst, hop_limit, packet), 0)]

        def emit(reply_src, request_src, icmp):
            emissions.append(
                Emission(time=now, packet=build_ipv6_icmp(reply_src, request_src, 64, icmp))
            )

        def emit_echo(reply_src: int, request: _Pkt):
            icmp = bytes([129, 0, 0, 0]) + request.raw[44:]
            emit(reply_src, request.src, icmp)

        def emit_error(router: SimRouter, icmp_type: int, code: int, request: _Pkt):
            if not self._buckets[router.id].consume(now):
                return
            icmp = bytes([icmp_type, code, 0, 0]) + bytes(4) + request.quote()[:1232]
            emit(router.canonical_address, request.src, icmp)

        while heap:
            if events >= self.topology.max_events:
                exceeded = True
                break
            _, rid, _, pkt, ingress_idx = heapq.heappop(heap)
            events += 1
            router = self._by_id[rid]
            action = lpm(router, dst)
            attached = any(i.subnet.covers_address(dst) for i in router.interfaces)
            aliased = any(p.covers_address(dst) for p in self.topology.aliased_prefixes)

            if aliased and (attached or action == LOCAL):
                emit_echo(dst, pkt)
            elif router.sra_enabled and any(i.subnet.sra == dst for i in router.interfaces):
                if router.sra_source == "ingress":
                    reply_src = router.interfaces[ingress_idx].address
                else:
                    reply_src = router.canonical_address
                emit_echo(reply_src, pkt)
            elif any(i.address == dst for i in router.interfaces):
                emit_echo(dst, pkt)
            elif action is None:
                emit_error(router, 1, 0, pkt)
            elif action == LOCAL:
                emit_error(router, 1, 3, pkt)
            elif pkt.hop_limit <= 1:
                emit_error(router, 3, 0, _Pkt(pkt.src, pkt.dst, 0, pkt.raw))
            else:
                forwarded = _Pkt(pkt.src, pkt.dst, pkt.hop_limit - 1, pkt.raw)
                next_idx = self._ingress[(rid, action)]
                for _ in range(router.replication_factor):
                    seq += 1
                    heapq.heappush(heap, (now, action, seq, forwarded, next_idx))

        return Delivery(emissions, events, exceeded)
