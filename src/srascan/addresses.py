"""IPv6 addresses and prefixes: their text, their line-oriented files, and
longest-prefix match.

Every command reads its inputs through this module, so it holds only the
address layer: the codec between 128-bit integers and RFC 5952 text
(`format_address`, `parse_address`, `parse_prefix`), `Ipv6Prefix`,
`PrefixTable`, the line readers of probe lists, hitlists, prefix files and
label files, and `exclude`.  Target generation lives in `target_gen`, which
only `gen-targets` imports.

The value types are NamedTuples, not dataclasses, because every command
imports this module and importing `dataclasses` is a start-up cost each
command would pay.  A checked type is a NamedTuple base plus a subclass
whose `__new__` runs the checks; `_replace` and `_make` skip that
`__new__`, so nothing calls them on a checked type.  A block of a prefix
file is checked a column at a time instead, and its prefixes are built
with `tuple.__new__`.

The socket calls come from `_socket`, the C module behind `socket`:
`socket.inet_pton` and `socket.inet_ntop` are `_socket`'s functions, and
importing `socket` itself would build its enums and import `selectors` in
every process.
"""

from __future__ import annotations

import bisect
import codecs
import io
import ipaddress
import itertools
import json
import operator
from _socket import AF_INET6, inet_ntop, inet_pton
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

MAX128 = (1 << 128) - 1


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

    __slots__ = ("default", "_buckets")

    def __init__(
        self,
        entries: Iterable[tuple[Ipv6Prefix, object]] = (),
        default: object = "unknown",
    ):
        by_length: dict[int, dict[int, object]] = {}
        for prefix, value in entries:
            by_length.setdefault(prefix.length, {})[prefix.bits] = value
        self._index(by_length, default)

    @classmethod
    def grouped(
        cls, by_length: dict[int, dict[int, object]], default: object = "unknown"
    ) -> "PrefixTable":
        """The table of `{length: {bits: value}}`, whose dicts it keeps as they are."""
        table = cls.__new__(cls)
        table._index(by_length, default)
        return table

    def _index(self, by_length: dict[int, dict[int, object]], default: object) -> None:
        self.default = default
        # (mask, bucket) per distinct length, longest first.
        self._buckets = [(_MASKS[n], by_length[n]) for n in sorted(by_length, reverse=True)]

    def __len__(self) -> int:
        return sum(len(bucket) for _, bucket in self._buckets)

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


# glibc writes the last 32 bits of ::/96 and ::ffff:0:0/96 as a dotted
# quad, and so does ipaddress, from Python 3.13, for ::ffff:0:0/96.  Both
# lie below LOW_ADDRESSES, so one comparison takes every such address off
# inet_ntop.
LOW_ADDRESSES = 1 << 48


def format_address(address: int) -> str:
    """RFC 5952 text of a 128-bit address, with every group in hex."""
    if 0 <= address < LOW_ADDRESSES:
        # The top five groups are zero, the longest run of zeros: the text
        # is `::`, then the groups from the first one that is not zero.
        return "::" + ":".join([f"{address >> s & 0xFFFF:x}" for s in (32, 16, 0) if address >> s])
    return inet_ntop(AF_INET6, address.to_bytes(16, "big"))


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
        return int.from_bytes(inet_pton(AF_INET6, text), "big")
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
    prefix_text, comma, label = line.partition(",")
    if not comma:
        raise ValueError(f"expected PREFIX,LABEL, got {line!r}")
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


# Lines of an input parsed per step of `read_blocks`, and, through
# `target_gen`'s import of it, at most the lines of a probe list written per
# block of `plan_text`.  Any value >= 1 is correct.
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
        map(inet_pton, itertools.repeat(AF_INET6), block),
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
    address through inet_pton and each length ASCII decimal.

    Every length and host part is checked at once, as Ipv6Prefix checks
    one: a block with a length above 128, or with host bits set, raises
    ValueError.
    """
    addresses, _, lengths = zip(*map(str.partition, block, itertools.repeat("/")))
    if not (all(map(str.isdigit, lengths)) and "".join(lengths).isascii()):
        raise ValueError("a prefix length is not ASCII decimal")
    bits = list(map(
        int.from_bytes,
        map(inet_pton, itertools.repeat(AF_INET6), addresses),
        itertools.repeat("big"),
    ))
    lengths = list(map(int, lengths))
    if max(lengths) > 128 or any(map(operator.and_, bits, map(MAX128.__rshift__, lengths))):
        raise ValueError("a prefix length is above 128, or host bits are set")
    return bits, lengths


def _prefix_block(block: list[str]) -> list[Ipv6Prefix]:
    """A block of `address/length` lines, checked by column, so the
    prefixes are built without running Ipv6Prefix's checks per line."""
    return list(map(tuple.__new__, itertools.repeat(Ipv6Prefix), zip(*_prefix_columns(block))))


def parse_prefix_keys(texts: list[str]) -> list[tuple[int, int]]:
    """`(bits, length)` of `parse_prefix` of each text, in one C chain.

    The chain checks every length and host part at once (`_prefix_columns`).
    A list it refuses (a bare, scoped, padded, non-text or bad item) is
    parsed item by item, so a bad item is refused with parse_prefix's
    message.
    """
    try:
        return list(zip(*_prefix_columns(texts)))
    except (OSError, TypeError, ValueError):
        return [(p.bits, p.length) for p in map(parse_prefix, texts)]


def read_prefixes(lines: Iterable[str]) -> Iterator[Ipv6Prefix]:
    """The prefixes of a prefix file: `read_records(lines, parse_prefix)`,
    parsed a block of lines at a time.

    A block that holds anything but `address/length` lines (a blank, #,
    bare-address or padded line, or a bad one) is parsed line by line
    (`read_blocks`).
    """
    return read_blocks(lines, _prefix_block, parse_prefix)


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


def _merged(ranges: Iterable[tuple[int, int]]) -> list[int]:
    """The edges of the union of half-open ranges [start, end), from one
    sort: start, end, start, end, ... ascending, with touching ranges joined.

    A value x is in the union when `bisect_right(edges, x)` is odd.
    """
    edges: list[int] = []
    for start, end in sorted(ranges):
        if edges and start <= edges[-1]:
            edges[-1] = max(edges[-1], end)
        else:
            edges += (start, end)
    return edges


def exclude(targets: Sequence[int], prefixes: Iterable[Ipv6Prefix]) -> list[int]:
    """The targets that no prefix in `prefixes` covers, in input order,
    repeats kept.

    The prefixes merge into sorted disjoint ranges (`_merged`).  A long
    ascending run of targets is cut at each range it meets, with two
    bisections per range, so a sorted probe list costs a few bisections per
    excluded range, not one per target.  Every other target takes one
    bisection, in a chain of C calls.
    """
    edges = _merged((p.bits, p.bits + (1 << (128 - p.length))) for p in prefixes)
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
