"""Probe target generation for subnet-router anycast (SRA) scanning.

The subnet-router anycast address of a prefix is the prefix with all host
bits zero (RFC 4291 section 2.6.1).  Every generator below emits SRA
addresses derived from routing data (announced prefixes) or from a hitlist
of known-active host addresses.

Generators are lazy: they yield targets one by one, as 128-bit integers,
and never materialize a full target list, so prefix sets that expand to
billions of addresses can be streamed to a sender or counted.  Each mode's
plan is read four ways: `gen_*` yields its addresses, `plan_size` sums its
sizes, `plan_text` writes the probe list as text, and `plan_ndjson` writes
it as NDJSON records that name the prefix and rule that produced each
address.  `take` cuts a plan to its first n targets.  The writers format a
run of up to READ_BLOCK targets at once (`format_addresses`), and the
stage-1 and hitlist plans are built READ_BLOCK inputs at a time, so an
entry of one target, as each of theirs is, runs no Python frame of its own.
Deduplication is exact and runs on one index range per prefix, not on
per-address sets: ranges are sorted and merged into disjoint ones (`_merged`),
and stage 2's claims come from one sweep over them in sorted order
(`_first_claims`), so planning costs O(n log n) in n prefixes.

Only `gen-targets` imports this module, and the command itself,
`cmd_gen_targets`, is here too, so that `cli` holds no code that only
`gen-targets` runs; the addresses, prefixes and line readers that every
command uses are in `addresses`.  `GenerationConfig` is
a checked NamedTuple, as the value types there are, so that `gen-targets`
does not import `dataclasses` either.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import json
import operator
import random
import struct
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

# The C functions behind hashlib.blake2b and socket.inet_ntop: importing
# hashlib would load OpenSSL, and socket build its enums, in every
# gen-targets process, for functions it does not call.
from _blake2 import blake2b
from _socket import AF_INET6, inet_ntop

from .addresses import (
    LOW_ADDRESSES,
    READ_BLOCK,
    Ipv6Prefix,
    _merged,
    format_address,
    read_hitlist,
    read_prefixes,
)

# A plan's inputs are prefixes: the prefix type, its parser and the address
# bound stay importable from here beside the plans that take them.
from .addresses import MAX128, parse_prefix  # noqa: F401


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


class _GenerationConfig(NamedTuple):
    route6_samples_per_prefix: int = 10_000
    rng_seed: int = 0


class GenerationConfig(_GenerationConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.route6_samples_per_prefix < 1:
            raise ValueError("route6_samples_per_prefix must be >= 1")
        if not 0 <= self.rng_seed < (1 << 64):
            raise ValueError("rng_seed must fit in 64 bits")
        return self


# A plan is an ordered iterable of (origin, stage, indices) entries.  `indices`
# is a sized iterable of subnet indices at the stage's subnet length (a range
# for the grid stages).  Each gen_* walks its plan and `plan_size` sums the
# entry lengths of the same plan, so a count equals its stream's length.
# Every target of an entry has the entry's origin and stage as provenance.
_PlanEntry = tuple[Ipv6Prefix, Stage, Collection[int]]


def _shift(origin: Ipv6Prefix, stage: Stage) -> int:
    """Host bits below an entry's subnets: a target is `index << shift`."""
    return 128 - (_STAGE_SUBNET_LEN[stage] or origin.length)


def _walk(plan: Iterable[_PlanEntry]) -> Iterator[int]:
    return itertools.chain.from_iterable(
        map(_shift(origin, stage).__rlshift__, indices) for origin, stage, indices in plan
    )


def plan_size(plan: Iterable[_PlanEntry]) -> int:
    """Number of targets in `plan`: the sum of its entry lengths, taken in C."""
    return sum(map(len, map(operator.itemgetter(2), plan)))


def take(plan: Iterable[_PlanEntry], n: int) -> Iterator[_PlanEntry]:
    """The plan of the first `n` targets of `plan`, in walk order.

    The cut is found READ_BLOCK entries at a time, from the running sums of
    their sizes, and the entries are flattened in C, so a plan of
    one-target entries runs no Python frame per entry.
    """
    return itertools.chain.from_iterable(_take_blocks(iter(plan), n))


def _take_blocks(plan: Iterator[_PlanEntry], n: int) -> Iterator[list[_PlanEntry]]:
    while n > 0 and (block := list(itertools.islice(plan, READ_BLOCK))):
        sizes = map(len, map(operator.itemgetter(2), block))
        starts = list(itertools.accumulate(sizes, initial=0))
        if starts[-1] < n:
            yield block
            n -= starts[-1]
            continue
        # The entries that start before the n-th target; the last may run past it.
        kept = bisect.bisect_left(starts, n, 0, len(block))
        origin, stage, indices = block[kept - 1]
        if starts[kept] > n:
            left = n - starts[kept - 1]
            if type(indices) is range:
                indices = indices[:left]
            else:
                indices = list(itertools.islice(indices, left))
            block[kept - 1] = origin, stage, indices
        yield block[:kept]
        return


# An aligned run of 16**3 values of a 16-bit group: their hex texts differ
# only in the last three digits.
DIGIT_WINDOW = 4096


@functools.cache
def _hex_digits() -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The hex text of 0 .. DIGIT_WINDOW - 1, zero-filled to three digits,
    and bare.  Built on first use, so that importing the module stays cheap."""
    padded = tuple(map("".join, itertools.product("0123456789abcdef", repeat=3)))
    return padded, tuple(d.lstrip("0") or "0" for d in padded)


def _grid_text(
    start: int, stop: int, shift: int, lead: str = "", end: str = "\n"
) -> Iterator[str]:
    """The lines of targets `idx << shift` for idx in [start, stop), each
    address text between `lead` and `end`, in blocks that end at multiples
    of DIGIT_WINDOW and of READ_BLOCK.

    The low shift/16 >= 4 groups of a target are zero.  When the group above
    them, w = idx & 0xFFFF, is not zero, that tail is the only run of four or
    more zero groups (at most three groups lie above w), so RFC 5952
    compresses exactly the tail, and the text is a head, then w in hex, then
    `::` (the target is at least 2^64, so no dotted quad).  A block never
    crosses a multiple of DIGIT_WINDOW, so within it only w's last three hex
    digits change: the head, cut once per block from `format_address`, ends
    in w's leading digit, and the lines are joined from `_hex_digits`,
    zero-filled unless w < DIGIT_WINDOW.  An address with w == 0 goes
    through `format_address`.
    """
    padded, bare = _hex_digits()
    tail = "::" + end
    while start < stop:
        block_end = min(stop, (start // DIGIT_WINDOW + 1) * DIGIT_WINDOW,
                        (start // READ_BLOCK + 1) * READ_BLOCK)
        base = start & ~0xFFFF
        w, w_end = start - base, block_end - base
        text = ""
        if w == 0:
            text = lead + format_address(start << shift) + end
            w = 1
        if w < w_end:
            window = w & -DIGIT_WINDOW
            digits = (padded if window else bare)[w - window : w_end - window]
            head = lead + format_address((base + w) << shift)[: -len(digits[0]) - 2]
            text += head + f"{tail}{head}".join(digits) + tail
        yield text
        start = block_end


def format_addresses(addresses: list[int]) -> list[str]:
    """`format_address` of each address, in one C chain: `int.to_bytes`,
    then `inet_ntop`.

    A list that holds an address below LOW_ADDRESSES, whose text glibc may
    write as a dotted quad, is formatted address by address.
    """
    if min(addresses, default=LOW_ADDRESSES) < LOW_ADDRESSES:
        return list(map(format_address, addresses))
    return list(map(
        inet_ntop,
        itertools.repeat(AF_INET6),
        map(int.to_bytes, addresses, itertools.repeat(16), itertools.repeat("big")),
    ))


# An NDJSON line of `plan_ndjson`: address, origin bits and length, stage.
_NDJSON_LINE = '{{"address": "{}", "origin": "{}/{}", "stage": "{}"}}\n'


def _run_text(
    targets: list[int], origins: list[Ipv6Prefix], stages: list[str], ndjson: bool
) -> str:
    """The lines of `targets`, as text or, with each one's origin and stage
    value, as NDJSON, formatted together (`format_addresses`)."""
    texts = format_addresses(targets)
    if not ndjson:
        return "\n".join(texts) + "\n"
    origin_texts = format_addresses(list(map(operator.itemgetter(0), origins)))
    lengths = map(operator.itemgetter(1), origins)
    return "".join(map(_NDJSON_LINE.format, texts, origin_texts, lengths, stages))


def _plan_blocks(plan: Iterable[_PlanEntry], ndjson: bool) -> Iterator[str]:
    """The blocks of `plan_text`, or with `ndjson` of `plan_ndjson`.

    A range entry of /64-grid targets (a step-1 range of at least two
    targets whose shift is a multiple of 16, >= 64) is written by
    `_grid_text`.  The targets of all other entries are gathered, across
    entries, into runs of at most READ_BLOCK targets, each written at once
    by `_run_text`.  An entry of one index, as each of stage 1 and of a
    hitlist is, costs no Python call: no generator, key function, map or
    enum hash.
    """
    # The run gathered so far: per target, its address, and its entry's
    # origin and stage value.
    targets: list[int] = []
    origins: list[Ipv6Prefix] = []
    stages: list[str] = []
    stage = None
    for origin, entry_stage, indices in plan:
        if entry_stage is not stage:
            stage = entry_stage
            sublen, value = _STAGE_SUBNET_LEN[stage], stage.value
        shift = 128 - (sublen or origin.length)
        if type(indices) is range and len(indices) == 1:
            # Each stage-1 and hitlist entry.  The last branch would write
            # it the same, but its map, islice and repeats per entry made
            # writing such a plan about three times as slow per target.
            targets.append(indices.start << shift)
            origins.append(origin)
            stages.append(value)
            if len(targets) == READ_BLOCK:
                yield _run_text(targets, origins, stages, ndjson)
                targets, origins, stages = [], [], []
        elif type(indices) is range and indices.step == 1 and shift >= 64 and not shift % 16:
            if targets:
                yield _run_text(targets, origins, stages, ndjson)
                targets, origins, stages = [], [], []
            lead, end = "", "\n"
            if ndjson:
                lead = '{"address": "'
                end = f'", "origin": "{origin}", "stage": "{value}"}}\n'
            yield from _grid_text(indices.start, indices.stop, shift, lead, end)
        else:
            found = map(shift.__rlshift__, indices)
            while chunk := list(itertools.islice(found, READ_BLOCK - len(targets))):
                targets += chunk
                origins += itertools.repeat(origin, len(chunk))
                stages += itertools.repeat(value, len(chunk))
                if len(targets) == READ_BLOCK:
                    yield _run_text(targets, origins, stages, ndjson)
                    targets, origins, stages = [], [], []
    if targets:
        yield _run_text(targets, origins, stages, ndjson)


def plan_text(plan: Iterable[_PlanEntry]) -> Iterator[str]:
    """The probe list of `plan` as text blocks: `format_address` of each
    target, in walk order, one per line, at most READ_BLOCK lines a block.

    A range entry of /64-grid targets is written by filling in only the
    group that changes from one address to the next (`_grid_text`).  The
    targets of other entries (announced prefixes, hitlist /64s, route6
    samples) are formatted a run of up to READ_BLOCK targets at a time, in
    one C chain (`format_addresses`), with no Python call per one-address
    entry (`_plan_blocks`).
    """
    return _plan_blocks(plan, False)


def plan_ndjson(plan: Iterable[_PlanEntry]) -> Iterator[str]:
    """The probe list of `plan` as NDJSON blocks: per target, in walk order,
    `json.dumps({"address": ..., "origin": ..., "stage": ...})` on one line.

    Each line holds the address text `plan_text` writes for the target, in
    the same blocks.  A grid entry's lines are that text between a fixed
    lead and an end built once per entry from its origin and stage; a run
    of other targets is formatted with its origins (`_run_text`).  That
    equals `json.dumps` byte for byte, because address text, prefix text
    and stage values are ASCII with nothing JSON escapes.
    """
    return _plan_blocks(plan, True)


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
    """One entry per distinct SRA address; the first prefix that has it wins.

    Its size is the number of distinct SRA addresses among the prefixes.
    The entries are planned READ_BLOCK prefixes at a time and flattened in
    C, so no Python frame is resumed per entry.
    """
    return itertools.chain.from_iterable(_stage1_blocks(iter(prefixes)))


def _stage1_blocks(prefixes: Iterator[Ipv6Prefix]) -> Iterator[list[_PlanEntry]]:
    seen: set[int] = set()
    stage = Stage.BGP_AS_ANNOUNCED
    while block := list(itertools.islice(prefixes, READ_BLOCK)):
        entries = []
        for p in block:
            sra, length = p  # a prefix's SRA is its bits
            if sra not in seen:
                seen.add(sra)
                idx = sra >> (128 - length)
                entries.append((p, stage, range(idx, idx + 1)))
        yield entries


def gen_stage1(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """SRA address of every announced prefix, as announced.

    One target per distinct input prefix; prefixes of different length that
    share an SRA address (a /32 and its first /48) collapse to the first
    occurrence, so the stream never repeats an address.
    """
    yield from _walk(stage1_plan(prefixes))


def stage2_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """Deduplicated /48 index ranges, in input order.

    A prefix longer than /48 contributes its /48 supernet only when no
    announcement of length <= 48 covers that /48.  Each prefix then claims
    the maximal runs of its /48s that no earlier prefix claimed
    (`_first_claims`).  Its size is exact, and known without enumerating
    the /48s.
    """
    prefixes = list(prefixes)  # a repeat claims nothing, so needs no dedup pass
    covered_le48 = _merged(_range48(p) for p in prefixes if p.length <= 48)
    origins = []
    for p in prefixes:
        if p.length > 48:
            p = p.supernet(48)
            if bisect.bisect_right(covered_le48, p.bits >> 80) & 1:
                continue
        origins.append(p)
    claims = _first_claims(list(map(_range48, origins)))
    return [(origins[i], Stage.BGP_48, range(s, e)) for i, s, e in claims]


def _range48(p: Ipv6Prefix) -> tuple[int, int]:
    """The /48 indices [start, end) of a prefix of length <= 48."""
    start = p.bits >> 80
    return start, start + (1 << (48 - p.length))


def _first_claims(ranges: list[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """`(i, start, end)` for each maximal run [start, end) of `ranges[i]`
    that no earlier range covers, by i, then ascending.

    The ranges must nest or stand apart, as prefix ranges do.  One sweep in
    sorted order keeps a stack of the open ranges, innermost last, each with
    the lowest index open at its depth.  Every stretch between two edges
    goes to the lowest index open over it, and extends the run before it
    when that run has the same owner and ends where the stretch starts.
    """
    runs: list[tuple[int, int, int]] = []

    def claim(owner: int, start: int, end: int) -> None:
        if runs and runs[-1][0] == owner and runs[-1][2] == start:
            runs[-1] = (owner, runs[-1][1], end)
        elif start < end:
            runs.append((owner, start, end))

    stack: list[tuple[int, int]] = []  # (end, lowest open index)
    pos = 0
    # Outer ranges first at a shared start; a last start past every end
    # closes the ranges still open.
    edges = sorted((s, -e, i) for i, (s, e) in enumerate(ranges))
    for start, neg_end, i in edges + [(float("inf"), 0, 0)]:
        while stack and stack[-1][0] <= start:
            end, owner = stack.pop()
            claim(owner, pos, end)
            pos = end
        if stack:
            claim(stack[-1][1], pos, start)
            i = min(i, stack[-1][1])
        stack.append((-neg_end, i))
        pos = start
    runs.sort(key=operator.itemgetter(0))  # stable: each owner's runs stay ascending
    return runs


def gen_stage2(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """Partition announcements into /48 subnets and emit each SRA once.

    A prefix of length L <= 48 yields its 2^(48-L) component /48s.  A more
    specific announcement (L > 48) yields the SRA of its covering /48,
    unless another announcement of length <= 48 already covers that /48, in
    which case it yields nothing.  Overlaps are deduplicated at the target
    level, so nested announcements emit the union of their /48s exactly once.
    """
    yield from _walk(stage2_plan(prefixes))


def stage3_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """One range of 2^16 /64 indices per distinct exact /48 input."""
    plan = []
    for p in dict.fromkeys(prefixes):
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


def _prefix_rng(seed: int, prefix: Ipv6Prefix) -> random.Random:
    """Deterministic per-prefix generator.

    Derived from the global seed and the prefix itself so that output for a
    prefix does not depend on which other prefixes share the run; disjoint
    shards of one prefix list can be generated in parallel.
    """
    material = struct.pack(">Q16sB", seed, prefix.bits.to_bytes(16, "big"), prefix.length)
    digest = blake2b(material, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _route6_contested(prefixes: Sequence[Ipv6Prefix]) -> list[int]:
    """The merged edges (`_merged`) of the regions of /64 index space covered
    by more than one input prefix.

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
    contested = []
    depth = 0
    seg_start = 0
    for pos, delta in events:
        if depth >= 2 and pos > seg_start:
            contested.append((seg_start, pos))
        depth += delta
        seg_start = pos
    return _merged(contested)


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
    Its size is therefore pure arithmetic for prefixes that do not overlap
    any other input.
    """
    deduped = list(dict.fromkeys(prefixes))
    contested = _route6_contested(deduped)
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    seen_contested: set[int] = set()
    plan = []
    for p in deduped:
        origin = p if p.length <= 64 else p.supernet(64)
        samples = _Route6Samples(origin, cfg)
        base = origin.subnet_index(64)
        end = base + origin.subnet_count(64)
        # Contested at base, or a contested region starts before end.
        if (i := bisect_right(contested, base)) & 1 or bisect_left(contested, end) > i:
            for idx in samples.draw():
                if bisect_right(contested, idx) & 1:
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


def hitlist_plan(addresses: Iterable[int]) -> Iterator[_PlanEntry]:
    """One entry per distinct /64 of the hitlist's addresses, in first-seen order.

    The entries are planned READ_BLOCK addresses at a time and flattened in
    C, so no Python frame runs per entry.
    """
    return itertools.chain.from_iterable(_hitlist_blocks(iter(addresses)))


def _hitlist_blocks(addresses: Iterator[int]) -> Iterator[list[_PlanEntry]]:
    seen: set[int] = set()
    stage = Stage.HITLIST_64
    while block := list(itertools.islice(addresses, READ_BLOCK)):
        if min(block) < 0 or max(block) > MAX128:
            raise ValueError("prefix bits out of 128-bit range")
        entries = []
        for addr in block:
            idx = addr >> 64
            if idx not in seen:
                seen.add(idx)
                # A canonical /64 (the block is in range), so built
                # without Ipv6Prefix's checks.
                origin = tuple.__new__(Ipv6Prefix, (idx << 64, 64))
                entries.append((origin, stage, range(idx, idx + 1)))
        yield entries


def gen_from_hitlist(addresses: Iterable[int]) -> Iterator[int]:
    """Mask active host addresses to their /64 and emit each SRA once."""
    yield from _walk(hitlist_plan(addresses))


def _bgp_stage_plans(prefixes: Iterable[Ipv6Prefix]) -> tuple[list[_PlanEntry], ...]:
    """The stage 1, 2 and 3 plans of the prefixes."""
    prefixes = list(prefixes)
    return list(stage1_plan(prefixes)), stage2_plan(prefixes), stage3_plan(prefixes)


def _join_stages(
    stage1: list[_PlanEntry], stage2: list[_PlanEntry], stage3: list[_PlanEntry]
) -> list[_PlanEntry]:
    """The stage plans back to back, with the stage-1 SRAs cut from the later ranges.

    No stage-2 address falls in a stage-3 range except the base of an exact
    /48 announcement, and that is the announcement's own stage-1 SRA.
    """
    sras = [origin.sra for origin, _, _ in stage1]
    cut48 = sorted({a >> 80 for a in sras if not a & ((1 << 80) - 1)})
    cut64 = sorted({a >> 64 for a in sras if not a & ((1 << 64) - 1)})
    return stage1 + _cut(stage2, cut48) + _cut(stage3, cut64)


def bgp_all_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """Stage 1, 2 and 3 plans, with the stage-1 SRAs cut from the later ranges."""
    return _join_stages(*_bgp_stage_plans(prefixes))


def gen_bgp_all(prefixes: Iterable[Ipv6Prefix]) -> Iterator[int]:
    """Stages 1-3 back to back with cross-stage address deduplication.

    Priority follows emission order: an address produced by an earlier stage
    suppresses the same address from a later one.
    """
    yield from _walk(bgp_all_plan(prefixes))


def count_bgp_all(prefixes: Iterable[Ipv6Prefix]) -> dict[str, int]:
    """Per-stage counts plus the deduplicated total for stages 1-3 combined,
    from one build of each stage's plan."""
    stage1, stage2, stage3 = _bgp_stage_plans(prefixes)
    return {
        "stage1": plan_size(stage1),
        "stage2": plan_size(stage2),
        "stage3": plan_size(stage3),
        "deduplicated_total": plan_size(_join_stages(stage1, stage2, stage3)),
    }


# --- the gen-targets command ------------------------------------------------------


def cmd_gen_targets(args) -> int:
    """`srascan gen-targets`: the probe list of one mode, or its count."""
    from .cli import CliError, _load, _open_out

    if args.max_targets is not None and args.max_targets < 0:
        raise CliError("--max-targets must be >= 0")
    try:
        cfg = GenerationConfig(
            route6_samples_per_prefix=args.samples_per_prefix,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.mode == "hitlist":
        if not args.hitlist:
            raise CliError("--mode hitlist needs --hitlist FILE")
        plan = hitlist_plan(_load(args.hitlist, read_hitlist))
    else:
        if not args.prefixes:
            raise CliError(f"--mode {args.mode} needs --prefixes FILE")
        source = _load(args.prefixes, read_prefixes)
        if args.mode == "route6":
            plan = route6_plan(source, cfg)
        elif args.stage == "all" and args.count_only:
            # The per-stage counts, each stage planned once, then the total
            # of the plan as --max-targets cuts it.
            counts = count_bgp_all(source)
            if args.max_targets is not None:
                counts["deduplicated_total"] = min(counts["deduplicated_total"], args.max_targets)
            print(json.dumps(counts, indent=2))
            return 0
        else:
            plan = {
                "1": stage1_plan,
                "2": stage2_plan,
                "3": stage3_plan,
                "all": bgp_all_plan,
            }[args.stage](source)
    if args.max_targets is not None:
        plan = take(plan, args.max_targets)

    if args.count_only:
        print(plan_size(plan))
        return 0

    blocks = (plan_ndjson if args.ndjson else plan_text)(plan)
    out, close = _open_out(args.output)
    try:
        out.writelines(blocks)
    finally:
        if close:
            out.close()
    return 0
