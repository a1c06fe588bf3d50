"""Probe target generation for subnet-router anycast (SRA) scanning.

The subnet-router anycast address of a prefix is the prefix with all host
bits zero (RFC 4291 section 2.6.1).  Every generator below emits SRA
addresses derived from routing data (announced prefixes) or from a hitlist
of known-active host addresses.

Generators are lazy: they yield targets one by one, as 128-bit integers,
and never materialize a full target list, so prefix sets that expand to
billions of addresses can be streamed to a sender or counted.  Each mode's
plan is walked three ways: `gen_*` yields its addresses, `count_*` sums its
sizes, and `walk_records` yields each address as a `ProbeTarget` with the
prefix and rule that produced it.  Deduplication is exact and runs on
interval arithmetic over subnet index space, not on per-address sets.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import ipaddress
import itertools
import random
import socket
import struct
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Sequence

MAX128 = (1 << 128) - 1


class Stage(enum.Enum):
    """Which generation rule produced a target."""

    BGP_AS_ANNOUNCED = "bgp_as_announced"
    BGP_48 = "bgp48"
    BGP_64 = "bgp64"
    ROUTE6_RANDOM_64 = "route6_random64"
    HITLIST_64 = "hitlist64"


# Subnet length implied by each stage; None means "length of the origin prefix".
_STAGE_SUBNET_LEN = {
    Stage.BGP_AS_ANNOUNCED: None,
    Stage.BGP_48: 48,
    Stage.BGP_64: 64,
    Stage.ROUTE6_RANDOM_64: 64,
    Stage.HITLIST_64: 64,
}


@dataclass(frozen=True, slots=True)
class Ipv6Prefix:
    """A canonical IPv6 prefix: `bits` is a 128-bit integer, host bits zero.

    Non-canonical values (host bits set) are rejected rather than silently
    masked, so a typo in routing data surfaces instead of generating a
    bogus target range.
    """

    bits: int
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 128:
            raise ValueError(f"prefix length {self.length} out of range 0..128")
        if not 0 <= self.bits <= MAX128:
            raise ValueError("prefix bits out of 128-bit range")
        if self.bits & self.host_mask():
            raise ValueError(
                f"{format_address(self.bits)}/{self.length} has host bits set"
            )

    def host_mask(self) -> int:
        return (1 << (128 - self.length)) - 1

    @property
    def sra(self) -> int:
        """The subnet-router anycast address: all host bits zero."""
        return self.bits

    def covers_address(self, address: int) -> bool:
        return (address & ~self.host_mask()) & MAX128 == self.bits

    def covers(self, other: "Ipv6Prefix") -> bool:
        return other.length >= self.length and self.covers_address(other.bits)

    def supernet(self, length: int) -> "Ipv6Prefix":
        if length > self.length:
            raise ValueError(f"cannot widen /{self.length} to /{length}")
        mask = ~((1 << (128 - length)) - 1) & MAX128
        return Ipv6Prefix(self.bits & mask, length)

    def subnet_index(self, sublen: int) -> int:
        """Index of this prefix's first /sublen subnet within the whole space."""
        return self.bits >> (128 - sublen)

    def subnet_count(self, sublen: int) -> int:
        """Number of /sublen subnets inside this prefix (0 if prefix is longer)."""
        if sublen < self.length:
            return 0
        return 1 << (sublen - self.length)

    def __str__(self) -> str:
        return f"{format_address(self.bits)}/{self.length}"


_MISS = object()


class PrefixTable:
    """Longest-prefix match: address -> value of the longest covering prefix.

    One dict per distinct prefix length, probed longest first, so a lookup
    costs one dict probe per length.  The simulator's forwarding and
    attached-subnet tests, the aliased-prefix filter and `--labels` all use
    it.  A stored None is a value like any other and shadows shorter
    prefixes; only a miss returns `default`.
    """

    __slots__ = ("default", "_by_length", "_buckets")

    def __init__(
        self,
        entries: Iterable[tuple[Ipv6Prefix, object]] = (),
        default: object = "unknown",
    ):
        self.default = default
        self._by_length: dict[int, dict[int, object]] = {}
        # (mask, bucket) per distinct length, longest first; rebuilt by add
        # only when a new length appears.
        self._buckets: list[tuple[int, dict[int, object]]] = []
        for prefix, value in entries:
            self.add(prefix, value)

    def add(self, prefix: Ipv6Prefix, value: object) -> None:
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._buckets = [
                ((MAX128 << (128 - length)) & MAX128, self._by_length[length])
                for length in sorted(self._by_length, reverse=True)
            ]
        bucket[prefix.bits] = value

    def __len__(self) -> int:
        return sum(len(b) for b in self._by_length.values())

    def lookup(self, address: int):
        for mask, bucket in self._buckets:
            value = bucket.get(address & mask, _MISS)
            if value is not _MISS:
                return value
        return self.default

    def covers(self, address: int) -> bool:
        for mask, bucket in self._buckets:
            if address & mask in bucket:
                return True
        return False

    @classmethod
    def from_csv(cls, path, default: str = "unknown") -> "PrefixTable":
        """Rows of `prefix,label`, read by `read_records`."""
        with open(path) as fh:
            return cls(read_records(fh, parse_label_row), default)


@dataclass(frozen=True, slots=True)
class ProbeTarget:
    """One SRA address to probe, with provenance."""

    address: int
    origin: Ipv6Prefix
    stage: Stage

    def __post_init__(self):
        sublen = self.subnet_length
        if self.address & ((1 << (128 - sublen)) - 1):
            raise ValueError(
                f"target {format_address(self.address)} has host bits "
                f"set below /{sublen}"
            )
        if not self.origin.covers_address(self.address):
            raise ValueError(
                f"target {format_address(self.address)} not covered by "
                f"origin {self.origin}"
            )

    @property
    def subnet_length(self) -> int:
        return _STAGE_SUBNET_LEN[self.stage] or self.origin.length

    def __str__(self) -> str:
        return format_address(self.address)


@dataclass(frozen=True)
class GenerationConfig:
    route6_samples_per_prefix: int = 10_000
    rng_seed: int = 0

    def __post_init__(self):
        if self.route6_samples_per_prefix < 1:
            raise ValueError("route6_samples_per_prefix must be >= 1")
        if not 0 <= self.rng_seed < (1 << 64):
            raise ValueError("rng_seed must fit in 64 bits")


def format_address(address: int) -> str:
    """RFC 5952 text of a 128-bit address, with every group in hex."""
    if address < 1 << 48 and address >> 32 in (0, 0xFFFF):
        # glibc writes the last 32 bits of ::/96 and ::ffff:0:0/96 as a
        # dotted quad; ipaddress writes hex.  Both lie below 2^48, so one
        # comparison clears every other address.
        return str(ipaddress.IPv6Address(address))
    return socket.inet_ntop(socket.AF_INET6, address.to_bytes(16, "big"))


def parse_address(text: str) -> int:
    """Parse a bare IPv6 address (hitlist line format).

    Text with a scope, such as `fe80::1%eth0`, is accepted and the scope
    dropped.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected an address string, got {text!r}")
    text = text.strip()
    if "/" in text:
        raise ValueError(f"expected a bare address, got {text!r}")
    try:
        return int.from_bytes(socket.inet_pton(socket.AF_INET6, text), "big")
    except (OSError, ValueError):
        # inet_pton refuses scoped text; ipaddress accepts it, or refuses
        # the text with a message that says why.
        return int(ipaddress.IPv6Address(text))


def parse_prefix(text: str) -> Ipv6Prefix:
    """Parse `addr/len` or a bare address (treated as /128).

    Rejects malformed addresses, out-of-range lengths and prefixes with
    host bits set.
    """
    text = text.strip()
    if "/" in text:
        addr_part, _, len_part = text.partition("/")
        try:
            length = int(len_part)
        except ValueError:
            raise ValueError(f"bad prefix length {len_part!r}") from None
    else:
        addr_part, length = text, 128
    return Ipv6Prefix(parse_address(addr_part), length)


def parse_label_row(line: str) -> tuple[Ipv6Prefix, str]:
    """One `prefix,label` row of a `--labels` file."""
    prefix_text, label = line.split(",", 1)
    return parse_prefix(prefix_text), label.strip()


def read_records(lines: Iterable[str], parse: Callable[[str], object]) -> Iterator:
    """Parse every line of a line-oriented input, stripped.

    Blank lines and lines starting with # are skipped.  A line that `parse`
    refuses raises ValueError naming its 1-based line number.
    """
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = parse(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield record


class _IntervalSet:
    """Sorted disjoint half-open [start, end) intervals over subnet indices.

    Memory stays proportional to the number of distinct prefix ranges seen,
    never to the number of addresses covered.
    """

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []

    def add(self, start: int, end: int) -> list[tuple[int, int]]:
        """Insert [start, end); return the sub-ranges that were not yet covered."""
        if start >= end:
            return []
        starts, ends = self._starts, self._ends
        i = bisect.bisect_left(starts, start)
        if i > 0 and ends[i - 1] >= start:
            i -= 1
        j = i
        gaps = []
        cur = start
        while j < len(starts) and starts[j] <= end:
            if starts[j] > cur:
                gaps.append((cur, starts[j]))
            cur = max(cur, ends[j])
            j += 1
        if cur < end:
            gaps.append((cur, end))
        if i < j:
            new_start = min(start, starts[i])
            new_end = max(end, ends[j - 1])
        else:
            new_start, new_end = start, end
        starts[i:j] = [new_start]
        ends[i:j] = [new_end]
        return gaps

    def covers(self, index: int) -> bool:
        i = bisect.bisect_right(self._starts, index) - 1
        return i >= 0 and index < self._ends[i]

    def overlaps(self, start: int, end: int) -> bool:
        i = bisect.bisect_right(self._starts, start) - 1
        if i >= 0 and start < self._ends[i]:
            return True
        i += 1
        return i < len(self._starts) and self._starts[i] < end


def _dedup_prefixes(prefixes: Iterable[Ipv6Prefix]) -> list[Ipv6Prefix]:
    seen = set()
    out = []
    for p in prefixes:
        key = (p.bits, p.length)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


# A plan is an ordered iterable of (origin, stage, indices) entries.  `indices`
# is a sized iterable of subnet indices at the stage's subnet length (a range
# for the grid stages).  Each gen_* walks its plan and each count_* sums the
# entry lengths of the same plan, so a count equals its stream's length.
# `walk_records` walks the same plan with provenance.
_PlanEntry = tuple[Ipv6Prefix, Stage, Collection[int]]


def _shift(origin: Ipv6Prefix, stage: Stage) -> int:
    """Host bits below an entry's subnets: a target is `index << shift`."""
    return 128 - (_STAGE_SUBNET_LEN[stage] or origin.length)


def _walk(plan: Iterable[_PlanEntry]) -> Iterator[int]:
    return itertools.chain.from_iterable(
        map(_shift(origin, stage).__rlshift__, indices) for origin, stage, indices in plan
    )


def walk_records(plan: Iterable[_PlanEntry]) -> Iterator[ProbeTarget]:
    """The targets of `plan`, in walk order, each a validated ProbeTarget."""
    for origin, stage, indices in plan:
        shift = _shift(origin, stage)
        for idx in indices:
            yield ProbeTarget(idx << shift, origin, stage)


def _size(plan: Iterable[_PlanEntry]) -> int:
    return sum(len(indices) for _, _, indices in plan)


def _cut(plan: Iterable[_PlanEntry], points: list[int]) -> list[_PlanEntry]:
    """Split range entries so that none contains an index in sorted `points`."""
    out = []
    for origin, stage, indices in plan:
        start, stop = indices.start, indices.stop
        i = bisect.bisect_left(points, start)
        while i < len(points) and points[i] < stop:
            if points[i] > start:
                out.append((origin, stage, range(start, points[i])))
            start = points[i] + 1
            i += 1
        if start < stop:
            out.append((origin, stage, range(start, stop)))
    return out


def stage1_plan(prefixes: Iterable[Ipv6Prefix]) -> Iterator[_PlanEntry]:
    """One entry per distinct SRA address; the first prefix that has it wins."""
    seen: set[int] = set()
    for p in prefixes:
        sra = p.sra
        if sra not in seen:
            seen.add(sra)
            idx = sra >> (128 - p.length)
            yield p, Stage.BGP_AS_ANNOUNCED, range(idx, idx + 1)


def gen_stage1(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """SRA address of every announced prefix, as announced.

    One target per distinct input prefix; prefixes of different length that
    share an SRA address (a /32 and its first /48) collapse to the first
    occurrence, so the stream never repeats an address.
    """
    yield from _walk(stage1_plan(prefixes))


def count_stage1(prefixes: Iterable[Ipv6Prefix]) -> int:
    """Exact size of the gen_stage1 stream."""
    return _size(stage1_plan(prefixes))


def stage2_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """Deduplicated /48 index ranges, in input order.

    A prefix longer than /48 contributes its /48 supernet only when no
    announcement of length <= 48 covers that /48.
    """
    prefixes = _dedup_prefixes(prefixes)
    covered_le48 = _IntervalSet()
    for p in prefixes:
        if p.length <= 48:
            start = p.subnet_index(48)
            covered_le48.add(start, start + p.subnet_count(48))
    emitted = _IntervalSet()
    plan = []
    for p in prefixes:
        if p.length > 48:
            p = p.supernet(48)
            if covered_le48.covers(p.subnet_index(48)):
                continue
        start = p.subnet_index(48)
        for s, e in emitted.add(start, start + p.subnet_count(48)):
            plan.append((p, Stage.BGP_48, range(s, e)))
    return plan


def gen_stage2(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """Partition announcements into /48 subnets and emit each SRA once.

    A prefix of length L <= 48 yields its 2^(48-L) component /48s.  A more
    specific announcement (L > 48) yields the SRA of its covering /48,
    unless another announcement of length <= 48 already covers that /48, in
    which case it yields nothing.  Overlaps are deduplicated at the target
    level, so nested announcements emit the union of their /48s exactly once.
    """
    yield from _walk(stage2_plan(prefixes))


def count_stage2(prefixes: Iterable[Ipv6Prefix]) -> int:
    """Exact size of the gen_stage2 stream, without enumerating it."""
    return _size(stage2_plan(prefixes))


def stage3_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    plan = []
    for p in _dedup_prefixes(prefixes):
        if p.length == 48:
            base = p.subnet_index(64)
            plan.append((p, Stage.BGP_64, range(base, base + (1 << 16))))
    return plan


def gen_stage3(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """Partition exact /48 announcements into their 2^16 /64 subnets.

    Only inputs of length exactly 48 contribute; anything shorter would
    explode combinatorially and anything longer is already more specific
    than the /64 grain this stage probes.
    """
    yield from _walk(stage3_plan(prefixes))


def count_stage3(prefixes: Iterable[Ipv6Prefix]) -> int:
    """Exact size of the gen_stage3 stream: 2^16 per distinct /48 input."""
    return _size(stage3_plan(prefixes))


def _prefix_rng(seed: int, prefix: Ipv6Prefix) -> random.Random:
    """Deterministic per-prefix generator.

    Derived from the global seed and the prefix itself so that output for a
    prefix does not depend on which other prefixes share the run; disjoint
    shards of one prefix list can be generated in parallel.
    """
    material = struct.pack(">Q16sB", seed, prefix.bits.to_bytes(16, "big"), prefix.length)
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _route6_contested(prefixes: Sequence[Ipv6Prefix]) -> _IntervalSet:
    """Regions of /64 index space covered by more than one input prefix.

    Cross-prefix duplicate suppression only needs memory for addresses that
    fall inside these regions; disjoint inputs need none at all.
    """
    events = []
    for p in prefixes:
        start = p.subnet_index(64) if p.length <= 64 else p.supernet(64).subnet_index(64)
        count = max(p.subnet_count(64), 1)
        events.append((start, 1))
        events.append((start + count, -1))
    events.sort()
    contested = _IntervalSet()
    depth = 0
    seg_start = 0
    for pos, delta in events:
        if depth >= 2 and pos > seg_start:
            contested.add(seg_start, pos)
        depth += delta
        seg_start = pos
    return contested


class _Route6Samples:
    """min(k, 2^(64-L)) sampled /64 indices of a prefix, less those in `skip`.

    The size is known without sampling; the samples are drawn, in a
    deterministic order, only when the entry is iterated.
    """

    def __init__(self, prefix: Ipv6Prefix, cfg: GenerationConfig):
        self.prefix, self.cfg, self.skip = prefix, cfg, set()
        self.size = min(cfg.route6_samples_per_prefix, prefix.subnet_count(64))

    def draw(self) -> list[int]:
        base, space = self.prefix.subnet_index(64), self.prefix.subnet_count(64)
        rng = _prefix_rng(self.cfg.rng_seed, self.prefix)
        return [base + off for off in rng.sample(range(space), self.size)]

    def __len__(self) -> int:
        return self.size - len(self.skip)

    def __iter__(self) -> Iterator[int]:
        return (idx for idx in self.draw() if idx not in self.skip)


def route6_plan(
    prefixes: Iterable[Ipv6Prefix], cfg: GenerationConfig
) -> list[_PlanEntry]:
    """One lazy sample entry per distinct prefix.

    Only a prefix that touches a contested region is sampled while planning,
    to find the indices an earlier prefix already drew; those are skipped.
    """
    deduped = _dedup_prefixes(prefixes)
    contested = _route6_contested(deduped)
    seen_contested: set[int] = set()
    plan = []
    for p in deduped:
        origin = p if p.length <= 64 else p.supernet(64)
        samples = _Route6Samples(origin, cfg)
        base = origin.subnet_index(64)
        if contested.overlaps(base, base + origin.subnet_count(64)):
            for idx in samples.draw():
                if contested.covers(idx):
                    if idx in seen_contested:
                        samples.skip.add(idx)
                    seen_contested.add(idx)
        plan.append((origin, Stage.ROUTE6_RANDOM_64, samples))
    return plan


def gen_route6(
    prefixes: Iterable[Ipv6Prefix], cfg: GenerationConfig
) -> Iterator[int]:
    """Sample random /64 SRA addresses inside each routed prefix.

    Each prefix of length L <= 64 yields min(cfg.route6_samples_per_prefix,
    2^(64-L)) distinct /64 SRAs, sampled without replacement with a
    deterministic per-prefix generator.  Prefixes longer than /64 yield the
    SRA of their /64 supernet.  When inputs overlap, an address sampled for
    two prefixes is emitted only for the first: the stream never repeats.
    """
    yield from _walk(route6_plan(prefixes, cfg))


def count_route6(prefixes: Iterable[Ipv6Prefix], cfg: GenerationConfig) -> int:
    """Exact size of the gen_route6 stream.

    Pure arithmetic for prefixes that do not overlap any other input; only
    prefixes touching a contested region run their sampler.
    """
    return _size(route6_plan(prefixes, cfg))


def hitlist_plan(addresses: Iterable[int]) -> Iterator[_PlanEntry]:
    seen: set[int] = set()
    for addr in addresses:
        idx = addr >> 64
        if idx not in seen:
            seen.add(idx)
            yield Ipv6Prefix(idx << 64, 64), Stage.HITLIST_64, range(idx, idx + 1)


def gen_from_hitlist(addresses: Iterable[int]) -> Iterator[int]:
    """Mask active host addresses to their /64 and emit each SRA once."""
    yield from _walk(hitlist_plan(addresses))


def count_hitlist(addresses: Iterable[int]) -> int:
    """Number of distinct /64s in a hitlist."""
    return _size(hitlist_plan(addresses))


def bgp_all_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """Stage 1, 2 and 3 plans, with the stage-1 SRAs cut from the later ranges.

    No stage-2 address falls in a stage-3 range except the base of an exact
    /48 announcement, and that is the announcement's own stage-1 SRA.
    """
    prefixes = _dedup_prefixes(prefixes)
    stage1 = list(stage1_plan(prefixes))
    sras = [origin.sra for origin, _, _ in stage1]
    cut48 = sorted({a >> 80 for a in sras if not a & ((1 << 80) - 1)})
    cut64 = sorted({a >> 64 for a in sras if not a & ((1 << 64) - 1)})
    return (
        stage1
        + _cut(stage2_plan(prefixes), cut48)
        + _cut(stage3_plan(prefixes), cut64)
    )


def gen_bgp_all(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """Stages 1-3 back to back with cross-stage address deduplication.

    Priority follows emission order: an address produced by an earlier stage
    suppresses the same address from a later one.
    """
    yield from _walk(bgp_all_plan(prefixes))


def count_bgp_all(prefixes: Iterable[Ipv6Prefix]) -> dict[str, int]:
    """Per-stage counts plus the deduplicated total for stages 1-3 combined."""
    prefixes = _dedup_prefixes(prefixes)
    return {
        "stage1": count_stage1(prefixes),
        "stage2": count_stage2(prefixes),
        "stage3": count_stage3(prefixes),
        "deduplicated_total": _size(bgp_all_plan(prefixes)),
    }


def read_prefix_file(lines: Iterable[str]) -> Iterator[Ipv6Prefix]:
    """Parse one CIDR prefix per line, by the `read_records` conventions."""
    return read_records(lines, parse_prefix)


def target_record(target: ProbeTarget) -> dict:
    """NDJSON output format with provenance."""
    return {
        "address": format_address(target.address),
        "origin": str(target.origin),
        "stage": target.stage.value,
    }
