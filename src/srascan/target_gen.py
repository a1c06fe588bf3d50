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
address.  `take` cuts a plan to its first n targets.  Deduplication is exact
and runs on interval arithmetic over subnet index space, not on per-address
sets.

The value types are NamedTuples, not dataclasses, because every command
imports this module and importing `dataclasses` is a start-up cost each
command would pay.  A checked type is a NamedTuple base plus a subclass
whose `__new__` runs the checks; `_replace` and `_make` skip that
`__new__`, so nothing calls them on a checked type.
"""

from __future__ import annotations

import bisect
import codecs
import enum
import hashlib
import io
import ipaddress
import itertools
import json
import operator
import random
import socket
import struct
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

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


class _Ipv6Prefix(NamedTuple):
    bits: int
    length: int

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


class Ipv6Prefix(_Ipv6Prefix):
    """A canonical IPv6 prefix: `bits` is a 128-bit integer, host bits zero.

    Non-canonical values (host bits set) are rejected rather than silently
    masked, so a typo in routing data surfaces instead of generating a
    bogus target range.
    """

    __slots__ = ()

    def __new__(cls, bits: int, length: int):
        if not 0 <= length <= 128:
            raise ValueError(f"prefix length {length} out of range 0..128")
        if not 0 <= bits <= MAX128:
            raise ValueError("prefix bits out of 128-bit range")
        if bits & MAX128 >> length:
            raise ValueError(f"{format_address(bits)}/{length} has host bits set")
        return tuple.__new__(cls, (bits, length))


_MISS = object()
_MASKS = [(MAX128 << (128 - length)) & MAX128 for length in range(129)]


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
        by_length = self._by_length
        for prefix, value in entries:
            by_length.setdefault(prefix.length, {})[prefix.bits] = value
        self._index()

    @classmethod
    def grouped(
        cls, by_length: dict[int, dict[int, object]], default: object = "unknown"
    ) -> "PrefixTable":
        """The table of `{length: {bits: value}}`, whose dicts it keeps as they are."""
        table = cls.__new__(cls)
        table.default = default
        table._by_length = by_length
        table._index()
        return table

    def _index(self) -> None:
        # (mask, bucket) per distinct length, longest first; rebuilt by add
        # only when a new length appears.
        by_length = self._by_length
        self._buckets = [(_MASKS[n], by_length[n]) for n in sorted(by_length, reverse=True)]

    def add(self, prefix: Ipv6Prefix, value: object) -> None:
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._index()
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
    if not isinstance(text, str):
        raise ValueError(f"expected a prefix string, got {text!r}")
    text = text.strip()
    if "/" in text:
        addr_part, _, len_part = text.partition("/")
        try:
            # ASCII decimal only, as ipaddress reads a length: int() would
            # also take "4_8", "+48", " 48" and other scripts' digits.
            if not (len_part.isascii() and len_part.isdigit()):
                raise ValueError
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


def read_records(
    lines: Iterable[str], parse: Callable[[str], object], start: int = 1
) -> Iterator:
    """Parse every line of a line-oriented input, stripped.

    Blank lines and lines starting with # are skipped.  A line that `parse`
    refuses, or holds JSON nested too deep to parse, raises ValueError naming
    its line number, counted from `start`.
    """
    for lineno, raw in enumerate(lines, start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = parse(line)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield record


def parse_target_line(line: str) -> int:
    """A probe-list line: one address, or an NDJSON record with `address`."""
    if line.startswith("{"):
        line = json.loads(line)["address"]
    return parse_address(line)


# Lines of an input parsed per step of `read_blocks`, and of a probe list
# written per block of `plan_text`.
READ_BLOCK = 4096

# Bytes of a file decoded per step of `text_lines`: the chunk TextIOWrapper
# decodes as it iterates a file, so a decode error stops both after the
# same lines.
LINE_CHUNK = 8192


def text_lines(fh) -> Iterator[str]:
    """The lines of text file `fh`, without their newlines: the lines that
    iterating `fh` gives, with universal newlines, less each line's "\n".

    The file is read and decoded LINE_CHUNK bytes at a time, and each chunk
    is split once; the lines are flattened in C, so no Python frame is
    resumed per line.
    """
    return itertools.chain.from_iterable(_chunk_lines(fh))


def _chunk_lines(fh) -> Iterator[list[str]]:
    """The lines that each chunk of `fh` completes, for `text_lines`."""
    decode = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder(fh.encoding)(fh.errors), translate=True
    ).decode
    read = fh.buffer.read
    # The pieces of the partial line that ends the text decoded so far,
    # joined once its newline comes, so a long line costs linear time.
    tail: list[str] = []
    while chunk := read(LINE_CHUNK):
        lines = decode(chunk).split("\n")
        if len(lines) == 1:
            tail += lines
            continue
        lines[0] = "".join(tail) + lines[0]
        tail = [lines.pop()]
        yield lines
    lines = ("".join(tail) + decode(b"", True)).split("\n")
    if not lines[-1]:
        lines.pop()  # the file ends with a newline, or is empty
    yield lines


def read_blocks(
    lines: Iterable[str],
    parse_block: Callable[[list[str]], list],
    parse_line: Callable[[str], object],
) -> Iterator:
    """`read_records(lines, parse_line)`, parsed READ_BLOCK lines at a time.

    `parse_block` turns a block of lines into its values at once, and raises
    on any block it does not take whole.  It takes each line as it is, so
    any line with surrounding whitespace, such as a raw file line with its
    newline, makes it raise.  Such a block is parsed again line by line,
    so it yields the same values, or raises the same error, as
    `read_records`.  The blocks are flattened in C, so no Python frame is
    resumed per value.
    """
    return itertools.chain.from_iterable(_blocks(iter(lines), parse_block, parse_line))


def _blocks(lines: Iterator[str], parse_block, parse_line) -> Iterator[list]:
    """One list of values per READ_BLOCK lines, for `read_blocks`."""
    start = 1
    while True:
        # A decode error is raised as it is, but after the lines read before
        # it (`extend` keeps them) are parsed, as `read_records` would.
        block: list[str] = []
        try:
            block.extend(itertools.islice(lines, READ_BLOCK))
        except UnicodeDecodeError:
            yield list(read_records(block, parse_line, start=start))
            raise
        if not block:
            return
        try:
            values = parse_block(block)
        except Exception:
            # Whatever stopped the block, the reference parse below yields its
            # values or raises its fault, named by line, as read_records does.
            values = list(read_records(block, parse_line, start=start))
        yield values
        start += len(block)


def _address_block(block: list[str]) -> list[int]:
    """A block of bare addresses through inet_pton, with no Python frame per line."""
    return list(map(
        int.from_bytes,
        map(socket.inet_pton, itertools.repeat(socket.AF_INET6), block),
        itertools.repeat("big"),
    ))


def parse_addresses(texts: list[str]) -> list[int]:
    """`parse_address` of each text, in one C chain.

    A list the chain refuses (a scoped, padded, non-text or bad item) is
    parsed item by item, so a bad item is refused with parse_address's
    message.
    """
    try:
        return _address_block(texts)
    except (OSError, TypeError, ValueError):
        return list(map(parse_address, texts))


def read_addresses(lines: Iterable[str]) -> Iterator[int]:
    """The addresses of a probe list: `read_records(lines, parse_target_line)`,
    parsed a block of lines at a time.

    A block that holds anything but bare addresses (a blank, #, NDJSON,
    scoped or padded line, or a bad one) is parsed line by line
    (`read_blocks`).
    """
    return read_blocks(lines, _address_block, parse_target_line)


def read_hitlist(lines: Iterable[str]) -> Iterator[int]:
    """The addresses of a hitlist: `read_records(lines, parse_address)`,
    parsed a block of lines at a time as `read_addresses` parses them."""
    return read_blocks(lines, _address_block, parse_address)


def _prefix_columns(block: list[str]) -> tuple[list[int], list[int]]:
    """The bits and the lengths of a block of `address/length` lines, each
    address through inet_pton and each length ASCII decimal."""
    addresses, _, lengths = zip(*map(str.partition, block, itertools.repeat("/")))
    if not (all(map(str.isdigit, lengths)) and "".join(lengths).isascii()):
        raise ValueError("a prefix length is not ASCII decimal")
    bits = map(
        int.from_bytes,
        map(socket.inet_pton, itertools.repeat(socket.AF_INET6), addresses),
        itertools.repeat("big"),
    )
    return list(bits), list(map(int, lengths))


def _prefix_block(block: list[str]) -> list[Ipv6Prefix]:
    """A block of `address/length` lines, each prefix through Ipv6Prefix's checks."""
    return list(map(Ipv6Prefix, *_prefix_columns(block)))


def parse_prefix_keys(texts: list[str]) -> list[tuple[int, int]]:
    """`(bits, length)` of `parse_prefix` of each text, in one C chain.

    The chain checks every length and host part at once, as Ipv6Prefix
    does.  A list it refuses (a bare, scoped, padded, non-text or bad item)
    is parsed item by item, so a bad item is refused with parse_prefix's
    message.
    """
    try:
        bits, lengths = _prefix_columns(texts)
        if 0 <= min(lengths) and max(lengths) <= 128 and not any(
            map(operator.and_, bits, map(MAX128.__rshift__, lengths))
        ):
            return list(zip(bits, lengths))
    except (OSError, TypeError, ValueError):
        pass
    return [(p.bits, p.length) for p in map(parse_prefix, texts)]


def read_prefixes(lines: Iterable[str]) -> Iterator[Ipv6Prefix]:
    """The prefixes of a prefix file: `read_records(lines, parse_prefix)`,
    parsed a block of lines at a time.

    A block that holds anything but `address/length` lines (a blank, #,
    bare-address or padded line, or a bad one) is parsed line by line
    (`read_blocks`).
    """
    return read_blocks(lines, _prefix_block, parse_prefix)


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


# `exclude` looks for ascending runs of targets every _RUN_STEP positions,
# and cuts a run it finds at the excluded ranges instead of filtering it.
_RUN_STEP = 64


def _ascending_runs(values: Sequence[int], step: int) -> Iterator[tuple[int, int]]:
    """Ascending stretches [lo, hi) of `values`, in order, each more than
    `step` long and starting at a multiple of `step`.  Every ascending run of
    2 * step values or more holds one, from its first multiple of `step` on.

    Each probe compares a window of values in C and stops at the first
    descent, so a shuffled list costs one short probe per `step` values.
    """
    n = len(values)
    gt, index_of = operator.gt, operator.indexOf
    lo = 0
    while lo + step < n:
        start, width = lo, step
        while True:
            window = values[start : start + width + 1]
            try:
                hi = start + index_of(map(gt, window, window[1:]), True) + 1
                break
            except ValueError:  # no descent in the window
                start += len(window) - 1
                if start >= n - 1:
                    hi = n
                    break
                width *= 2
        if hi - lo > step:
            yield lo, hi
        lo = -(-hi // step) * step


def exclude(targets: Sequence[int], prefixes: Iterable[Ipv6Prefix]) -> list[int]:
    """The targets that no prefix in `prefixes` covers, in input order,
    repeats kept.

    The prefixes merge into sorted disjoint ranges.  A long ascending run of
    targets is cut at each range it meets, with two bisections per range,
    so a sorted probe list costs a few bisections per excluded range, not
    one per target.  Every other target takes one bisection, in a chain of
    C calls.
    """
    # The merged ranges' edges: start, end, start, end, ... ascending.
    edges: list[int] = []
    for start, end in sorted((p.bits, p.bits + (1 << (128 - p.length))) for p in prefixes):
        if edges and start <= edges[-1]:
            edges[-1] = max(edges[-1], end)
        else:
            edges += (start, end)
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    # A target is covered when an odd number of edges lie at or below it.
    outside = [True, False] * (len(edges) // 2) + [True]

    def filtered(part: Sequence[int]) -> list[int]:
        marks = map(bisect_right, itertools.repeat(edges), part)
        return list(itertools.compress(part, map(outside.__getitem__, marks)))

    kept: list[int] = []
    done = 0  # targets[:done] are decided
    for lo, hi in _ascending_runs(targets, _RUN_STEP):
        # The edges of the ranges that meet the run, as start, end pairs.
        first = bisect_right(edges, targets[lo])
        last = bisect_right(edges, targets[hi - 1])
        met = edges[first & ~1 : last + (last & 1)]
        if len(met) >= hi - lo:
            continue  # more bisections than targets: filter the run instead
        kept += filtered(targets[done:lo])
        for start, end in zip(met[::2], met[1::2]):
            cut = bisect_left(targets, start, lo, hi)
            kept += targets[lo:cut]
            lo = bisect_left(targets, end, cut, hi)
        kept += targets[lo:hi]
        done = hi
    kept += filtered(targets[done:])
    return kept


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
    """Number of targets in `plan`: the sum of its entry lengths."""
    return sum(len(indices) for _, _, indices in plan)


def take(plan: Iterable[_PlanEntry], n: int) -> Iterator[_PlanEntry]:
    """The plan of the first `n` targets of `plan`, in walk order."""
    for origin, stage, indices in plan:
        if n <= 0:
            return
        if len(indices) > n:
            if type(indices) is range:
                indices = indices[:n]
            else:
                indices = list(itertools.islice(indices, n))
        n -= len(indices)
        yield origin, stage, indices


def line_blocks(lines: Iterable[str]) -> Iterator[str]:
    """`lines` joined READ_BLOCK at a time, each line ending in a newline."""
    lines = iter(lines)
    while block := list(itertools.islice(lines, READ_BLOCK)):
        yield "\n".join(block) + "\n"


def _fills_one_group(entry: _PlanEntry) -> bool:
    """Whether `plan_text` writes an entry by filling in one group per line:
    a range of at least two targets whose shift is a multiple of 16, >= 64."""
    origin, stage, indices = entry
    if type(indices) is not range or len(indices) < 2 or indices.step != 1:
        return False
    shift = _shift(origin, stage)
    return shift >= 64 and shift % 16 == 0


def _grid_text(start: int, stop: int, shift: int) -> Iterator[str]:
    """The lines of targets `idx << shift` for idx in [start, stop), in
    blocks that end at multiples of READ_BLOCK.

    The low shift/16 >= 4 groups of a target are zero.  When the group above
    them, w = idx & 0xFFFF, is not zero, that tail is the only run of four or
    more zero groups (at most three groups lie above w), so RFC 5952
    compresses exactly the tail, and the text is a head, then w in hex, then
    `::` (the target is at least 2^64, so no dotted quad).  A block never
    crosses a multiple of 2^16, so only w changes within it; the head is cut
    once per block from `format_address`.  An address with w == 0 goes
    through `format_address`.
    """
    while start < stop:
        end = min(stop, (start // READ_BLOCK + 1) * READ_BLOCK)
        base = start & ~0xFFFF
        w, w_end = start - base, end - base
        text = ""
        if w == 0:
            text = format_address(start << shift) + "\n"
            w = 1
        if w < w_end:
            head = format_address((base + w) << shift)[: -len(f"{w:x}::")]
            words = map(format, range(w, w_end), itertools.repeat("x"))
            text += head + f"::\n{head}".join(words) + "::\n"
        yield text
        start = end


def plan_text(plan: Iterable[_PlanEntry]) -> Iterator[str]:
    """The probe list of `plan` as text blocks: `format_address` of each
    target, in walk order, one per line, at most READ_BLOCK lines a block.

    A range entry of /64-grid targets (`_fills_one_group`) is written by
    filling in only the group that changes from one address to the next.
    Runs of other entries (single addresses, samples) are formatted one
    address at a time.
    """
    for fills, run in itertools.groupby(plan, _fills_one_group):
        if fills:
            for origin, stage, indices in run:
                yield from _grid_text(indices.start, indices.stop, _shift(origin, stage))
        else:
            yield from line_blocks(map(format_address, _walk(run)))


def plan_ndjson(plan: Iterable[_PlanEntry]) -> Iterator[str]:
    """The probe list of `plan` as NDJSON blocks: per target, in walk order,
    `json.dumps({"address": ..., "origin": ..., "stage": ...})` on one line.

    Each line is the address text `plan_text` writes for the target's entry,
    between a fixed head and a tail built once per entry from its origin and
    stage.  That equals `json.dumps` byte for byte, because address text,
    prefix text and stage values are ASCII with nothing JSON escapes.
    """
    for entry in plan:
        origin, stage, _ = entry
        tail = f'", "origin": "{origin}", "stage": "{stage.value}"}}\n'
        joint = tail + '{"address": "'
        for block in plan_text([entry]):
            yield '{"address": "' + block[:-1].replace("\n", joint) + tail


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
    """
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


def stage2_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """Deduplicated /48 index ranges, in input order.

    A prefix longer than /48 contributes its /48 supernet only when no
    announcement of length <= 48 covers that /48.  Its size is exact, and
    known without enumerating the /48s.
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


def stage3_plan(prefixes: Iterable[Ipv6Prefix]) -> list[_PlanEntry]:
    """One range of 2^16 /64 indices per distinct exact /48 input."""
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
    Its size is therefore pure arithmetic for prefixes that do not overlap
    any other input.
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


def hitlist_plan(addresses: Iterable[int]) -> Iterator[_PlanEntry]:
    """One entry per distinct /64 of the hitlist's addresses, in first-seen order."""
    seen: set[int] = set()
    for addr in addresses:
        idx = addr >> 64
        if idx not in seen:
            seen.add(idx)
            yield Ipv6Prefix(idx << 64, 64), Stage.HITLIST_64, range(idx, idx + 1)


def gen_from_hitlist(addresses: Iterable[int]) -> Iterator[int]:
    """Mask active host addresses to their /64 and emit each SRA once."""
    yield from _walk(hitlist_plan(addresses))


def _bgp_stage_plans(prefixes: Iterable[Ipv6Prefix]) -> tuple[list[_PlanEntry], ...]:
    """The stage 1, 2 and 3 plans of the distinct prefixes."""
    prefixes = _dedup_prefixes(prefixes)
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
