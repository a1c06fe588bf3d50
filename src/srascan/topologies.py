"""Canned simulated topologies, and writing a topology to a file.

A scan only reads topology files (`netsim.load_topology`), so what builds
and saves them lives here, off the scan's import path: `topology_to_dict`
and `save_topology` write the JSON that `netsim.topology_from_dict` reads
back, and two canned shapes build topologies in Python, a rate-limited
gateway fronting active and inactive subnets and a provider/customer loop.
`netsim` still answers for these four names, importing this module when
one of them is first read.
"""

from __future__ import annotations

import json
import random

from .addresses import Ipv6Prefix, format_address, parse_prefix
from .netsim import TOPOLOGY_FORMAT_VERSION, Interface, Route, SimRouter, SimTopology


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


def save_topology(topology: SimTopology, path) -> None:
    with open(path, "w") as fh:
        json.dump(topology_to_dict(topology), fh, indent=2)
        fh.write("\n")


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
    rnd = random.Random(seed)
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
                interfaces=(
                    Interface(leaf_link_addr, link),
                    Interface(active.bits | 1, active),
                ),
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
        interfaces=tuple(gw_ifaces),
        routes=tuple(gw_routes),
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
        interfaces=(Interface(uplink.bits | 1, uplink), Interface(link.bits | 1, link)),
        routes=(Route(parse_prefix(covering), "customer"),),
        error_rate=error_rate,
        error_burst=error_burst,
        replication_factor=replication_factor if replicate_on == "provider" else 1,
    )
    customer = SimRouter(
        id="customer",
        interfaces=(
            Interface(link.bits | 2, link),
            *(Interface(parse_prefix(u).bits | 1, parse_prefix(u)) for u in used),
        ),
        routes=(Route(parse_prefix("::/0"), "provider"),),
        error_rate=error_rate,
        error_burst=error_burst,
        replication_factor=replication_factor if replicate_on == "customer" else 1,
    )
    return SimTopology(routers=[provider, customer], entry_router="provider")
