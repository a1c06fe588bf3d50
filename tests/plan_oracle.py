"""Independent enumerator of gen-targets' target lists, for cross-checking.

Shares no code with srascan.target_gen: prefixes are parsed, checked and
widened by the ipaddress module, every subnet address is listed from a
network's first to its last address, and duplicates are dropped with a set
of the addresses already listed.  Each
function lists the targets of one mode, in the order generation writes
them, as (address, origin, stage) triples: the address an int, the origin
the text of the prefix that produced it, the stage the rule's name.

The rules are the README's:
  - stage 1 (`bgp_as_announced`): the anycast address of each announcement;
  - stage 2 (`bgp48`): the anycast address of each /48 an announcement of
    length <= 48 covers, and of the /48 above each longer announcement that
    no announcement of length <= 48 covers;
  - stage 3 (`bgp64`): the anycast address of every /64 of each announced
    /48;
  - all: stages 1, 2 and 3 in that order, an address kept only the first
    time;
  - hitlist (`hitlist64`): the anycast address of each address's /64.
Within a stage, prefixes go in input order and each prefix's subnets in
ascending order; an address produced twice is kept at its first producer.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Iterator

Triple = tuple[int, str, str]


def _nets(prefix_strs: Iterable[str]) -> list[ipaddress.IPv6Network]:
    return [ipaddress.IPv6Network(s) for s in prefix_strs]


def _subnets(net: ipaddress.IPv6Network, length: int) -> range:
    """The network addresses of `net`'s /length subnets, ascending."""
    step = 1 << (128 - length)
    return range(int(net.network_address), int(net.broadcast_address) + 1, step)


def _first_seen(triples: Iterable[Triple]) -> list[Triple]:
    seen: set[int] = set()
    out = []
    for triple in triples:
        if triple[0] not in seen:
            seen.add(triple[0])
            out.append(triple)
    return out


def _stage1(nets: list[ipaddress.IPv6Network]) -> Iterator[Triple]:
    for n in nets:
        yield int(n.network_address), str(n), "bgp_as_announced"


def _stage2(nets: list[ipaddress.IPv6Network]) -> Iterator[Triple]:
    le48 = [n for n in nets if n.prefixlen <= 48]
    for n in nets:
        if n.prefixlen > 48:
            n = n.supernet(new_prefix=48)
            if any(n.subnet_of(m) for m in le48):
                continue
        origin = str(n)
        for address in _subnets(n, 48):
            yield address, origin, "bgp48"


def _stage3(nets: list[ipaddress.IPv6Network]) -> Iterator[Triple]:
    for n in nets:
        if n.prefixlen == 48:
            origin = str(n)
            for address in _subnets(n, 64):
                yield address, origin, "bgp64"


def stage1(prefix_strs: Iterable[str]) -> list[Triple]:
    return _first_seen(_stage1(_nets(prefix_strs)))


def stage2(prefix_strs: Iterable[str]) -> list[Triple]:
    return _first_seen(_stage2(_nets(prefix_strs)))


def stage3(prefix_strs: Iterable[str]) -> list[Triple]:
    return _first_seen(_stage3(_nets(prefix_strs)))


def bgp_all(prefix_strs: Iterable[str]) -> list[Triple]:
    nets = _nets(prefix_strs)
    return _first_seen([*_stage1(nets), *_stage2(nets), *_stage3(nets)])


def hitlist(address_strs: Iterable[str]) -> list[Triple]:
    nets = (ipaddress.IPv6Network((s, 64), strict=False) for s in address_strs)
    return _first_seen((int(n.network_address), str(n), "hitlist64") for n in nets)


def oracle_stage2_set(prefix_strs: list[str]) -> set[int]:
    return {address for address, _, _ in stage2(prefix_strs)}


def oracle_stage3_set(prefix_strs: list[str]) -> set[int]:
    return {address for address, _, _ in stage3(prefix_strs)}


def oracle_64s(prefix_str: str) -> set[int]:
    return set(_subnets(ipaddress.IPv6Network(prefix_str), 64))
