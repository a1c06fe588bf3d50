"""Turning raw reply streams into per-scan findings.

Everything here is pure data manipulation: match replies back to the probes
that caused them, peel off aliased and self-sourced responses, and reduce
what remains to router observations, visibility across scans, anycast
stability, loop detection, and dataset comparisons.  Inputs are iterables
of ReplyRecord plus the probed target set; a probed target that drew no
reply is silent and has no entry among the answers, so a mostly silent
sweep costs about its replies.  Results are dataclasses; nothing touches
the network or opens a file.

`read_replies` decodes the lines of a reply file into ReplyRecords.  Only
`analyze` reads reply files, so the reader lives here and not in
`probe_engine`, which every scan imports; `ReplyRecord.from_json`, the
one-line parse it falls back to, stays with the record.

`REPORTS` holds one report per `analyze` action.  Each reads its files
through the loader the CLI passes in and returns its JSON report, its CSV
header and its CSV rows; the CLI prints the one and writes the others.
Each walks the decoded records of a reply file once and keeps only what it
prints: `visibility` the sources of the records `_third_party` keeps,
`stability` each target's answering source (`_answering`), and `loops` the
Time Exceeded replies per target and source (`_loop_report`).  Only
`summarize` groups a file's records by target, through `match_replies`.
`alias_filter`, `stability_mapping` and `detect_loops` run the same code
on the records of a MatchResult's answers.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator

# The C function behind socket.inet_pton: importing socket builds its enums.
from _socket import AF_INET6, inet_pton

from .addresses import (
    MAX128,
    Ipv6Prefix,
    PrefixTable,
    format_address,
    parse_label_row,
    read_addresses,
    read_blocks,
    read_prefixes,
    read_records,
)
from .probe_engine import ReplyKind, ReplyRecord


def enclosing_prefix(address: int, length: int) -> Ipv6Prefix:
    mask = (MAX128 << (128 - length)) & MAX128 if length else 0
    return Ipv6Prefix(address & mask, length)


# --- reply files ----------------------------------------------------------------


_KIND_BY_VALUE = {kind.value: kind for kind in ReplyKind}
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def _reply_block(block: list[str]) -> list[ReplyRecord]:
    """The records of a block of reply lines, each line a JSON object with
    the seven keys and bare addresses; raises on any other block.

    Each line goes through the C JSON scanner with no Python frame, and must
    be used up to its end.  Each record is built by `tuple.__new__` from its
    fields, which skips the Python frame of `ReplyRecord.__new__`.
    """
    records = []
    append = records.append
    new = tuple.__new__
    pton, af, from_bytes = inet_pton, AF_INET6, int.from_bytes
    for (d, end), line in zip(map(_scan_json, block, [0] * len(block)), block):
        if end != len(line):
            raise ValueError("extra data after the JSON value")
        embedded = d["embedded_target"]
        append(new(ReplyRecord, (
            _KIND_BY_VALUE[d["kind"]],
            d["type"],
            d["code"],
            from_bytes(pton(af, d["src"]), "big"),
            None if embedded is None else from_bytes(pton(af, embedded), "big"),
            d["hop_limit"],
            d["ts"],
        )))
    # A line with no JSON value at its start (a blank, # or padded line)
    # makes the scanner raise StopIteration, which ends `map` early.
    if len(records) != len(block):
        raise ValueError("a line holds no JSON value")
    return records


def read_replies(lines: Iterable[str]) -> Iterator[ReplyRecord]:
    """The records of a reply file: `read_records(lines, ReplyRecord.from_json)`,
    decoded a block of lines at a time.

    A block that holds anything but plain record lines (a blank, #, scoped
    or padded line, or a bad one) is parsed line by line (`read_blocks`),
    so it yields the same records, or names the same `line N`, as
    `from_json`.
    """
    return read_blocks(lines, _reply_block, ReplyRecord.from_json)


# --- matching -----------------------------------------------------------------


@dataclass
class MatchResult:
    """Replies grouped by the probe that elicited them.

    `answers` holds only the targets that drew a reply, in first-reply
    order; a target in `probed` with no entry was silent.  Replies with no
    authenticated payload, or naming an unprobed address, are `unsolicited`.
    """

    probed: frozenset[int]
    answers: dict[int, list[ReplyRecord]]
    unsolicited: list[ReplyRecord]


def match_replies(
    targets: Iterable[int], records: Iterable[ReplyRecord]
) -> MatchResult:
    probed = frozenset(targets)
    answers: dict[int, list[ReplyRecord]] = {}
    unsolicited = []
    for rec in records:
        t = rec.embedded_target
        if t in probed:
            answers.setdefault(t, []).append(rec)
        else:
            unsolicited.append(rec)
    return MatchResult(probed, answers, unsolicited)


# --- alias and self-reply filtering ---------------------------------------------

# Kinds are compared by identity: hashing a ReplyKind is a Python call.
ECHO_REPLY, TIME_EXCEEDED, OTHER = ReplyKind.ECHO_REPLY, ReplyKind.TIME_EXCEEDED, ReplyKind.OTHER


def _aliased_table(aliased: Iterable[Ipv6Prefix]) -> PrefixTable:
    return PrefixTable((p, True) for p in aliased)


def _answered(result: MatchResult) -> list[ReplyRecord]:
    return [rec for recs in result.answers.values() for rec in recs]


def _inside(records: list[ReplyRecord], aliased: PrefixTable) -> set[int]:
    """The sources of `records` inside an aliased prefix; `covers` runs once
    per distinct source."""
    covers = aliased.covers
    return {source for source in {rec.source for rec in records} if covers(source)}


def _third_party(
    probed: frozenset[int], records: list[ReplyRecord], aliased: PrefixTable
) -> list[ReplyRecord]:
    """The records that answer for a probed target from a third party: a
    source that is neither the target itself (a host, or an aliased network
    answering for everything) nor inside an aliased prefix."""
    kept = [
        rec for rec in records
        if rec.embedded_target in probed and rec.source != rec.embedded_target
    ]
    skipped = _inside(kept, aliased)
    return [rec for rec in kept if rec.source not in skipped] if skipped else kept


@dataclass(frozen=True, order=True)
class RouterObservation:
    """One distinct reply source left after filtering, with its evidence."""

    router_ip: int
    elicited_by: frozenset = field(compare=False)  # of (target, ReplyKind)
    scan_id: int = field(default=0, compare=False)


def alias_filter(
    result: MatchResult,
    aliased: Iterable[Ipv6Prefix] = (),
    scan_id: int = 0,
) -> list[RouterObservation]:
    """Reduce matched replies to router addresses.

    Keeps the replies `_third_party` keeps, as the `visibility` report
    does: what remains are third-party sources, routers speaking for the
    probed subnet, each with the (target, kind) pairs it answered.  Sorted
    by address for determinism.
    """
    evidence: dict[int, set] = defaultdict(set)
    for rec in _third_party(result.probed, _answered(result), _aliased_table(aliased)):
        evidence[rec.source].add((rec.embedded_target, rec.kind))
    return [
        RouterObservation(router_ip=ip, elicited_by=frozenset(ev), scan_id=scan_id)
        for ip, ev in sorted(evidence.items())
    ]


# --- per-scan summary ------------------------------------------------------------


@dataclass(frozen=True)
class ScanSummary:
    targets_probed: int
    replies_total: int
    echo_replies: int
    error_replies: int
    distinct_sources: int
    echo_only_sources: int
    error_only_sources: int
    mixed_sources: int
    reply_rate: float


def summarize_scan(result: MatchResult) -> ScanSummary:
    """Counts of one scan's replies and of their sources, in one pass over
    the answers.

    Each source keeps one int of flags: 1 once it sent an Echo Reply, 2
    once it sent an error.  A source with neither (only OTHER replies)
    counts as error-only.
    """
    answered = echo = other = 0
    flags: dict[int, int] = {}
    get = flags.get
    for recs in result.answers.values():
        answered += len(recs)
        for rec in recs:
            kind, source = rec.kind, rec.source
            if kind is ECHO_REPLY:
                echo += 1
                flags[source] = get(source, 0) | 1
            elif kind is OTHER:
                other += 1
                flags[source] = get(source, 0)
            else:
                flags[source] = get(source, 0) | 2
    per_source = list(flags.values())
    echo_only, mixed = per_source.count(1), per_source.count(3)
    n = len(result.probed)
    return ScanSummary(
        targets_probed=n,
        replies_total=answered + len(result.unsolicited),
        echo_replies=echo,
        error_replies=answered - echo - other,
        distinct_sources=len(per_source),
        echo_only_sources=echo_only,
        error_only_sources=len(per_source) - echo_only - mixed,
        mixed_sources=mixed,
        reply_rate=(len(result.answers) / n) if n else 0.0,
    )


# --- cross-scan visibility --------------------------------------------------------


@dataclass(frozen=True)
class VisibilityReport:
    scans: int
    always: frozenset
    sometimes: frozenset
    never: frozenset
    histogram: dict[int, int]  # number of scans present -> router count


def build_visibility_matrix(per_scan_sources: list[set[int]]) -> dict[int, list[bool]]:
    universe = set().union(*per_scan_sources) if per_scan_sources else set()
    return {
        ip: [ip in scan for scan in per_scan_sources] for ip in sorted(universe)
    }


def _partition(seen: dict[int, int], scans: int) -> VisibilityReport:
    """Partition routers by `seen`, the number of the `scans` each appears in."""
    if scans < 2:
        raise ValueError("visibility needs at least two scans")
    always = {ip for ip, count in seen.items() if count == scans}
    never = {ip for ip, count in seen.items() if not count}
    return VisibilityReport(
        scans=scans,
        always=frozenset(always),
        sometimes=frozenset(seen.keys() - always - never),
        never=frozenset(never),
        histogram=dict(sorted(Counter(seen.values()).items())),
    )


def visibility(matrix: dict[int, list[bool]]) -> VisibilityReport:
    """Partition routers by how consistently they appear across scans."""
    lengths = {len(row) for row in matrix.values()}
    if len(lengths) > 1:
        raise ValueError("ragged visibility matrix")
    scans = lengths.pop() if lengths else 0
    return _partition({ip: sum(row) for ip, row in matrix.items()}, scans)


# --- anycast answer stability -----------------------------------------------------


def _answering(
    probed: frozenset[int], records: list[ReplyRecord], aliased: PrefixTable
) -> dict[int, int | None]:
    """Per probed target, the source that answered it, or None.

    One loop keeps each answered target's lowest Echo Reply source and its
    lowest other source, skipping sources inside an aliased prefix; the
    Echo Reply source wins.
    """
    skipped = _inside(records, aliased)
    echo: dict[int, int] = {}
    other: dict[int, int] = {}
    for rec in records:
        target, source = rec.embedded_target, rec.source
        if target in probed and source not in skipped:
            lowest = echo if rec.kind is ECHO_REPLY else other
            held = lowest.get(target)
            if held is None or source < held:
                lowest[target] = source
    answering: dict[int, int | None] = dict.fromkeys(probed)
    answering.update(other)
    answering.update(echo)
    return answering


def stability_mapping(
    result: MatchResult, aliased: Iterable[Ipv6Prefix] = ()
) -> dict[int, int | None]:
    """Per target: the address that answered for it, or None.

    Echo Reply sources win over error sources; ties break to the lowest
    address so repeated runs agree.
    """
    return _answering(result.probed, _answered(result), _aliased_table(aliased))


@dataclass(frozen=True)
class StabilityRow:
    scan_index: int
    same: float
    changed: float
    no_response: float


def sra_stability(
    scans: list[dict[int, int | None]], baseline: str = "first"
) -> list[StabilityRow]:
    """Fraction of targets answered by the same source as the baseline scan.

    `baseline` is "first" (compare every later scan to scan 0) or
    "previous" (compare to the scan immediately before).  A target counts
    as `same` only when both scans got an answer and it came from the same
    address; `no_response` when the later scan got nothing; `changed`
    otherwise.  The three fractions sum to 1 per row.
    """
    if baseline not in ("first", "previous"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if len(scans) < 2:
        raise ValueError("stability needs at least two scans")
    keys = set(scans[0])
    for i, scan in enumerate(scans[1:], start=1):
        if set(scan) != keys:
            raise ValueError(f"scan {i} probed a different target set")
    if not keys:
        raise ValueError("stability needs at least one target")
    rows = []
    for i in range(1, len(scans)):
        ref = scans[0] if baseline == "first" else scans[i - 1]
        cur = scans[i]
        same = changed = silent = 0
        for t in keys:
            if cur[t] is None:
                silent += 1
            elif ref[t] is not None and cur[t] == ref[t]:
                same += 1
            else:
                changed += 1
        n = len(keys)
        rows.append(StabilityRow(i, same / n, changed / n, silent / n))
    return rows


# --- loop detection ---------------------------------------------------------------


@dataclass(frozen=True)
class LoopSource:
    looping_subnets: int
    amplification: int  # most Time Exceeded replies one probe pulled from it


@dataclass(frozen=True)
class LoopReport:
    looping_subnets: frozenset  # of Ipv6Prefix
    per_router: dict[int, LoopSource]


def _loop_report(
    probed: frozenset[int], records: list[ReplyRecord], subnet_length: int,
    min_time_exceeded: int,
) -> LoopReport:
    """`detect_loops` over the records of one reply file.

    One loop counts the Time Exceeded replies per (probed target, source);
    the rest works on those counts, and builds one Ipv6Prefix per looping
    subnet.
    """
    if min_time_exceeded < 1:
        raise ValueError("min_time_exceeded must be at least 1")
    if not 0 <= subnet_length <= 128:
        raise ValueError("subnet_length must be in 0..128")
    per_pair = Counter([
        (rec.embedded_target, rec.source) for rec in records
        if rec.kind is TIME_EXCEEDED and rec.embedded_target in probed
    ])
    per_target: dict[int, int] = {}
    for (target, _), count in per_pair.items():
        per_target[target] = per_target.get(target, 0) + count
    mask = MAX128 ^ (MAX128 >> subnet_length)
    subnets_by_router: dict[int, set[int]] = defaultdict(set)
    worst_by_router: dict[int, int] = {}
    for (target, source), count in per_pair.items():
        if per_target[target] >= min_time_exceeded:
            subnets_by_router[source].add(target & mask)
            if count > worst_by_router.get(source, 0):
                worst_by_router[source] = count
    return LoopReport(
        # A masked subnet is canonical: Ipv6Prefix.__new__ has nothing to check.
        looping_subnets=frozenset({
            tuple.__new__(Ipv6Prefix, (bits, subnet_length))
            for bits in set().union(*subnets_by_router.values())
        }),
        per_router={
            ip: LoopSource(len(subnets_by_router[ip]), worst_by_router[ip])
            for ip in sorted(subnets_by_router)
        },
    )


def detect_loops(
    result: MatchResult, subnet_length: int = 48, min_time_exceeded: int = 1
) -> LoopReport:
    """Find subnets whose probes expired in transit, and who ate the hops.

    A target whose replies include at least `min_time_exceeded` Time
    Exceeded messages marks its enclosing subnet as looping.  Per reply
    source, reports how many looping subnets it participated in and the
    worst per-probe amplification (replies per single probe).
    `min_time_exceeded` is at least 1, so a silent target never loops.
    """
    return _loop_report(result.probed, _answered(result), subnet_length, min_time_exceeded)


# --- dataset comparison -----------------------------------------------------------


@dataclass
class ComparisonReport:
    """Exact overlap structure of several address sets.

    `exclusive` is keyed by the sorted tuple of set names an address
    belongs to, so the values partition the union: they always sum to
    `union_size`.
    """

    sizes: dict[str, int]
    union_size: int
    exclusive: dict[tuple[str, ...], int]
    pairwise: dict[tuple[str, str], int]
    by_label: dict[str, dict[str, int]] | None = None


def compare_datasets(
    named_sets: dict[str, Iterable[int]],
    table: PrefixTable | None = None,
) -> ComparisonReport:
    if len(named_sets) < 2:
        raise ValueError("comparison needs at least two sets")
    names = sorted(named_sets)
    sets = {name: set(named_sets[name]) for name in names}
    union = set().union(*sets.values())
    exclusive: Counter = Counter()
    for address in union:
        members = tuple(n for n in names if address in sets[n])
        exclusive[members] += 1
    pairwise = {
        (a, b): len(sets[a] & sets[b])
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    by_label = None
    if table is not None:
        by_label = defaultdict(lambda: {name: 0 for name in names})
        for name in names:
            for address in sets[name]:
                by_label[table.lookup(address)][name] += 1
        by_label = dict(sorted(by_label.items()))
    return ComparisonReport(
        sizes={n: len(sets[n]) for n in names},
        union_size=len(union),
        exclusive=dict(sorted(exclusive.items())),
        pairwise=pairwise,
        by_label=by_label,
    )


# --- the analyze command's reports ------------------------------------------------
#
# Each takes the command's arguments, the probed targets (None for compare)
# and `load(path, read, *args)`, which returns the list that `read(lines,
# *args)` yields over a file's lines.  A bad argument is a ValueError.


def _matched(targets, path, load) -> MatchResult:
    return match_replies(targets, load(path, read_replies))


def _aliased(args, load) -> PrefixTable:
    return _aliased_table(load(args.aliased, read_prefixes) if args.aliased else ())


def _summarize(args, targets, load):
    names = [Path(path).name for path in args.replies]
    shared = [path for path, name in zip(args.replies, names) if names.count(name) > 1]
    if shared:
        raise ValueError(
            f"summarize keys its report by file name, which {' and '.join(shared)} share"
        )
    report = {
        name: vars(summarize_scan(_matched(targets, path, load)))
        for name, path in zip(names, args.replies)
    }
    header = ["scan", *(f.name for f in fields(ScanSummary))]
    return report, header, ([name, *s.values()] for name, s in report.items())


def _visibility(args, targets, load):
    aliased = _aliased(args, load)
    seen: Counter = Counter()  # router -> reply files it answered in
    for path in args.replies:
        kept = _third_party(targets, load(path, read_replies), aliased)
        seen.update({rec.source for rec in kept})
    report = _partition(seen, len(args.replies))
    summary = {
        "scans": report.scans,
        "always": len(report.always),
        "sometimes": len(report.sometimes),
        "never": len(report.never),
        "histogram": report.histogram,  # json writes the int keys as text
    }
    return summary, ["scans_present", "routers"], report.histogram.items()


def _stability(args, targets, load):
    aliased = _aliased(args, load)
    scans = [_answering(targets, load(path, read_replies), aliased) for path in args.replies]
    rows = [vars(r) for r in sra_stability(scans, baseline=args.baseline)]
    header = [f.name for f in fields(StabilityRow)]
    return rows, header, (r.values() for r in rows)


def _loops(args, targets, load):
    if len(args.replies) != 1:
        raise ValueError("loops reads exactly one reply file")
    if not 0 <= args.subnet_length <= 128:
        raise ValueError("--subnet-length must be in 0..128")
    if args.min_time_exceeded < 1:
        raise ValueError("--min-time-exceeded must be at least 1")
    (path,) = args.replies
    report = _loop_report(
        targets, load(path, read_replies), args.subnet_length, args.min_time_exceeded
    )
    routers = {format_address(ip): vars(src) for ip, src in report.per_router.items()}
    summary = {
        "looping_subnets": sorted(str(p) for p in report.looping_subnets),
        "routers": routers,
    }
    header = ["router", *(f.name for f in fields(LoopSource))]
    return summary, header, ([ip, *src.values()] for ip, src in routers.items())


def _compare(args, targets, load):
    paths = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set wants NAME=FILE, got {item!r}")
        name, _, path = item.partition("=")
        # The report joins set names with "+" and pairs of them with "&".
        if not name or "+" in name or "&" in name:
            raise ValueError(f"--set name {name!r} must be non-empty, without '+' or '&'")
        if name in paths:
            raise ValueError(f"--set names {name!r} twice")
        paths[name] = path
    named = {name: load(path, read_addresses) for name, path in paths.items()}
    table = None
    if args.labels:
        table = PrefixTable(load(args.labels, read_records, parse_label_row))
    report = compare_datasets(named, table)
    exclusive = {"+".join(k): v for k, v in report.exclusive.items()}
    summary = {
        "sizes": report.sizes,
        "union": report.union_size,
        "exclusive": exclusive,
        "pairwise": {f"{a}&{b}": v for (a, b), v in report.pairwise.items()},
        "by_label": report.by_label,
    }
    return summary, ["member_of", "addresses"], exclusive.items()


REPORTS = {
    "summarize": _summarize,
    "visibility": _visibility,
    "stability": _stability,
    "loops": _loops,
    "compare": _compare,
}
