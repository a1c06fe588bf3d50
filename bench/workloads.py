"""Seeded inputs for the three benchmark workloads.

Each workload writes its own topology, announcement, exclusion and aliased
files from the seed; srascan only ever sees those files.  Why each workload
exists, and which layer it loads, is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import ipaddress
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from srascan import netsim


@dataclass
class Inputs:
    topology: str
    prefixes: str
    gen_args: list[str]
    secret: int
    exclude: str | None = None
    aliased: str | None = None
    leaf_sources: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Path], Inputs]
    hop_limit: int
    passes: int
    analyses: tuple[str, ...]
    # Scans per iteration, each its own checked process.  More than one
    # where one scan is short or its output varies from run to run.
    scans: int = 1
    # Runs of gen-targets and of each analyze command in their process, so
    # that a command of a few milliseconds is timed over a few tenths of a
    # second.  Fixed per workload, so a faster program is not timed longer.
    gen_repeat: int = 1
    analyze_repeat: int = 1


def _write(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines))
    return path.name


def _prefix(bits: int, length: int) -> str:
    mask = ((1 << length) - 1) << (128 - length)
    return str(ipaddress.IPv6Network((bits & mask, length)))


DB8 = 0x20010DB8 << 96  # 2001:db8::/32, the documentation block every topology uses
GRID = DB8 | (2 << 80)  # 2001:db8:2::/48 holds build_gateway_fanout's active /64s


def grid48_inputs(seed: int, work: Path) -> Inputs:
    """The paper's sweep: every /64 of an announced /48, two passes.

    A /46 covers the /48 (stage 2 overlaps stage 3), more-specifics inside it
    repeat stage-3 addresses (cross-stage dedup), and the /48 is announced
    twice.  Fifty exclusions drop 14 of the /48's 16 /52s, so 8k of its
    65k /64s are probed per pass while every target is still parsed and
    filtered.
    """
    rnd = random.Random(seed)
    topology, _ = netsim.build_gateway_fanout(
        n_inactive=16, m_active=40, seed=rnd.randrange(1 << 32), aliased=4
    )
    netsim.save_topology(topology, work / "topology.json")
    announced = [_prefix(GRID, 48), _prefix(DB8, 46), _prefix(GRID, 48)]
    announced += [
        _prefix(GRID | (rnd.getrandbits(16) << 64), rnd.choice((52, 56, 60, 64)))
        for _ in range(4)
    ]
    announced.append(_prefix(DB8 | (rnd.randrange(0x100, 0x10000) << 80), 56))
    rnd.shuffle(announced)
    blocks = rnd.sample(range(16), 14)
    excluded = [_prefix(GRID | (b << 76), 52) for b in blocks]
    while len(excluded) < 50:  # elsewhere in the /32, never touching the /48
        excluded.append(
            _prefix(DB8 | (rnd.randrange(0x100, 0x10000) << 80) | rnd.getrandbits(80),
                    rnd.randrange(40, 65))
        )
    return Inputs(
        topology="topology.json",
        prefixes=_write(work / "announced.txt", announced),
        gen_args=["--mode", "bgp", "--stage", "all"],
        secret=rnd.getrandbits(64),
        exclude=_write(work / "exclude.txt", excluded),
    )


def fanout_inputs(seed: int, work: Path) -> Inputs:
    """Hundreds of leaf routers behind one gateway, probed at every /64 SRA."""
    rnd = random.Random(seed)
    topology, meta = netsim.build_gateway_fanout(
        n_inactive=300, m_active=500, seed=rnd.randrange(1 << 32), aliased=50
    )
    netsim.save_topology(topology, work / "topology.json")
    prefixes = [
        str(p)
        for key in ("active_prefixes", "inactive_prefixes", "aliased_prefixes")
        for p in meta[key]
    ]
    rnd.shuffle(prefixes)
    return Inputs(
        topology="topology.json",
        prefixes=_write(work / "subnets.txt", prefixes),
        gen_args=["--mode", "bgp", "--stage", "1"],
        secret=rnd.getrandbits(64),
        aliased=_write(work / "aliased.txt", (str(p) for p in meta["aliased_prefixes"])),
        leaf_sources=[str(ipaddress.IPv6Address(a)) for a in meta["leaf_sources"]],
    )


def loop_inputs(seed: int, work: Path) -> Inputs:
    """route6 samples in two unused /40s of a provider/customer routing loop."""
    rnd = random.Random(seed)
    topology = netsim.build_loop_topology(replication_factor=2)
    netsim.save_topology(topology, work / "topology.json")
    # 2001:db8:XX00::/40 with XX in 1..254 misses the customer's used
    # 2001:db8:1::/48 and the 2001:db8:ffff:: link subnets.
    blocks = rnd.sample(range(1, 0xFF), 2)
    return Inputs(
        topology="topology.json",
        prefixes=_write(work / "routed.txt", (_prefix(DB8 | (b << 88), 40) for b in blocks)),
        gen_args=["--mode", "route6", "--samples-per-prefix", "250",
                  "--seed", str(rnd.getrandbits(32))],
        secret=rnd.getrandbits(64),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid48", grid48_inputs, hop_limit=64, passes=2,
                 analyses=("summarize", "visibility")),
        # fanout also runs `summarize` and `loops`, so that every analysis
        # function is timed on a gated workload; `loop` is not gated while
        # its reply loss swings.
        Workload("fanout", fanout_inputs, hop_limit=64, passes=2,
                 analyses=("visibility", "stability", "summarize", "loops"),
                 scans=2, gen_repeat=50, analyze_repeat=5),
        Workload("loop", loop_inputs, hop_limit=12, passes=1,
                 analyses=("loops", "summarize"), scans=3, gen_repeat=50, analyze_repeat=10),
    )
}
