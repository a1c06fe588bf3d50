"""Target generation tests.

Expected values come from independent oracles built on the ipaddress
module (tests/plan_oracle.py), not from the code under test.
"""

from __future__ import annotations

import bisect
import ipaddress
import json
import random
import re
import socket
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plan_oracle
from plan_oracle import oracle_64s, oracle_stage2_set, oracle_stage3_set
from srascan import target_gen
from srascan.target_gen import (
    MAX128,
    GenerationConfig,
    Ipv6Prefix,
    PrefixTable,
    Stage,
    bgp_all_plan,
    count_bgp_all,
    exclude,
    format_address,
    gen_bgp_all,
    gen_from_hitlist,
    gen_route6,
    gen_stage1,
    gen_stage2,
    gen_stage3,
    hitlist_plan,
    parse_address,
    parse_addresses,
    parse_prefix,
    parse_target_line,
    plan_ndjson,
    plan_size,
    read_addresses,
    read_hitlist,
    read_prefixes,
    read_records,
    route6_plan,
    stage1_plan,
    stage2_plan,
    stage3_plan,
    take,
)


def P(text: str) -> Ipv6Prefix:
    return parse_prefix(text)


def addr(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


def ndjson_records(plan) -> list[dict]:
    """The records of `plan`'s NDJSON probe list, decoded."""
    lines = "".join(plan_ndjson(plan))
    return json.loads("[" + lines.replace("\n", ",")[:-1] + "]") if lines else []


# --- parsing and primitives --------------------------------------------------


def test_parse_prefix_basic():
    p = P("2001:db8::/32")
    assert p.length == 32
    assert p.bits == addr("2001:db8::")


def test_parse_bare_address_is_slash_128():
    p = P("2001:db8::1")
    assert p.length == 128
    assert p.bits == addr("2001:db8::1")


@pytest.mark.parametrize(
    "bad",
    [
        "2001:db8::1/48",      # host bits set
        "2001:db8::/129",      # length out of range
        "2001:db8::/-1",
        "2001:db8::/xx",
        "not-an-address/48",
        "192.0.2.1/24",        # not IPv6
    ],
)
def test_parse_prefix_rejects(bad):
    with pytest.raises(ValueError):
        parse_prefix(bad)


@pytest.mark.parametrize("length", ["4_8", "+48", " 48", "\u0664\u0668", "\uff14\uff18"])
def test_a_prefix_length_is_ascii_decimal(length):
    """int() reads each of these lengths as 48; ipaddress refuses them all,
    and so do parse_prefix and the block path, with one message."""
    text = f"2001:db8::/{length}"
    with pytest.raises(ValueError):
        ipaddress.IPv6Network(text)
    message = f"bad prefix length {length!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_prefix(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        target_gen.parse_prefix_keys(["2001:db8:1::/48", text])
    with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
        list(read_prefixes(["2001:db8:1::/48", text]))


def test_a_prefix_length_may_have_leading_zeros_and_a_line_padding():
    assert parse_prefix("2001:db8::/048") == P("2001:db8::/48") == P(" 2001:db8::/48\t")
    assert target_gen.parse_prefix_keys(["2001:db8::/048"]) == [(addr("2001:db8::"), 48)]
    lines = ["2001:db8::/048", "2001:db8:1::/48 ", "\t2001:db8:2::/48"]
    assert list(read_prefixes(lines)) == [P(f"2001:db8:{i}::/48") for i in range(3)]


def test_parse_address_rejects_cidr():
    with pytest.raises(ValueError):
        parse_address("2001:db8::/48")


# --- address codec -------------------------------------------------------------

# Addresses biased towards runs of zero groups, where the compression rules
# of RFC 5952 decide the text, and towards ::/96 and ::ffff:0:0/96, where
# glibc writes a dotted quad and ipaddress does not.
_groups = st.lists(
    st.sampled_from([0, 0, 0, 1, 0xFFFF]) | st.integers(0, 0xFFFF),
    min_size=8,
    max_size=8,
)
addresses = st.one_of(
    _groups.map(lambda g: int.from_bytes(b"".join(x.to_bytes(2, "big") for x in g), "big")),
    st.integers(0, (1 << 32) - 1),
    st.integers(0, (1 << 32) - 1).map(lambda low: 0xFFFF << 32 | low),
    st.integers(0, (1 << 128) - 1),
)


@st.composite
def address_texts(draw):
    """Valid texts of an address, then up to three one-character edits."""
    a = draw(addresses)
    ip = ipaddress.IPv6Address(a)
    text = draw(
        st.sampled_from(
            [
                str(ip),
                ip.exploded,
                socket.inet_ntop(socket.AF_INET6, a.to_bytes(16, "big")),
                f"{ip}%eth0",
            ]
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from("0123456789abcdefABCDEFg:.%/ \x00"))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            text = text[:i] + char + text[i:]
        elif edit == "replace":
            text = text[:i] + char + text[i + 1 :]
        else:
            text = text[:i] + text[i + 1 :]
    return text


@settings(max_examples=2000, deadline=None)
@given(a=addresses)
@example(a=0)
@example(a=1)
@example(a=0x01020304)
@example(a=0xFFFF01020304)
def test_format_address_matches_ipaddress_and_round_trips(a):
    text = format_address(a)
    assert text == str(ipaddress.IPv6Address(a))
    assert parse_address(text) == a


def _parsed(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "refused"


@settings(max_examples=2000, deadline=None)
@given(text=address_texts())
@example(text="::")
@example(text="::1")
@example(text="::1.2.3.4")
@example(text="::ffff:1.2.3.4")
@example(text="fe80::1%eth0")
def test_parse_address_accepts_and_refuses_like_ipaddress(text):
    expected = _parsed(lambda t: int(ipaddress.IPv6Address(t.strip())), text)
    assert _parsed(parse_address, text) == expected


def test_scoped_address_text_drops_the_scope():
    assert parse_address("fe80::1%eth0") == addr("fe80::1")


def importers(module: str) -> set[str]:
    """The files of the srascan package that import `module`."""
    src = Path(__file__).resolve().parent.parent / "src" / "srascan"
    return {
        path.name
        for path in src.glob("*.py")
        if re.search(rf"^\s*(import|from)\s+{module}\b", path.read_text(), re.M)
    }


def test_only_target_gen_imports_ipaddress():
    """Address text is written and read in one module, so it cannot drift."""
    assert importers("ipaddress") == {"target_gen.py"}


def test_only_cli_imports_csv():
    """Reports are rendered in one module; the analysis computes them."""
    assert importers("csv") == {"cli.py"}


def test_cli_uses_no_private_target_gen_name():
    source = (Path(target_gen.__file__).parent / "cli.py").read_text()
    assert re.findall(r"target_gen\._\w+", source) == []


def test_sra_address_is_prefix_with_zero_host_bits():
    assert P("2001:db8:1::/48").sra == addr("2001:db8:1::")


@given(bits=st.integers(0, (1 << 128) - 1), length=st.integers(0, 128))
def test_prefix_canonicality(bits, length):
    host_mask = (1 << (128 - length)) - 1
    masked = bits & ~host_mask & ((1 << 128) - 1)
    p = Ipv6Prefix(masked, length)
    assert p.bits == masked
    if bits & host_mask:
        with pytest.raises(ValueError):
            Ipv6Prefix(bits, length)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(route6_samples_per_prefix=0)
    with pytest.raises(ValueError):
        GenerationConfig(rng_seed=1 << 64)


def test_read_prefix_file_reports_line_number():
    lines = ["2001:db8::/32\n", "# comment\n", "\n", "2001:db8::1/48\n"]
    with pytest.raises(ValueError, match="line 4"):
        list(read_records(lines, parse_prefix))


# --- probe lists ---------------------------------------------------------------

probe_list_lines = st.one_of(
    addresses.map(format_address),
    addresses.map(lambda a: ipaddress.IPv6Address(a).exploded),
    addresses.map(lambda a: format_address(a).upper()),
    st.sampled_from(["::ffff:1.2.3.4", "::1.2.3.4", "fe80::1%eth0", "", "   ", "# note"]),
    addresses.map(lambda a: json.dumps({"address": format_address(a), "stage": "bgp64"})),
    st.sampled_from([
        "2001:db8::/64",
        "2001:db8::\x001",
        "2001:db8::\ud800",
        "2001:db8::\u00e9",
        "\u0663::1",
        '{"address": 5}',
    ]),
)


def _read(read, lines):
    try:
        return list(read(lines))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=500, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.sampled_from(["", " ", "\t "]), probe_list_lines, st.sampled_from(["", " "]))
        .map(lambda parts: "".join(parts) + "\n"),
        max_size=30,
    ),
    block=st.sampled_from([1, 2, 3, 7, target_gen.READ_BLOCK]),
)
def test_read_addresses_matches_read_records(lines, block):
    """Block parsing yields what line-by-line parsing yields, or its error."""
    expected = _read(lambda ls: read_records(ls, parse_target_line), lines)
    with mock.patch.object(target_gen, "READ_BLOCK", block):
        assert _read(read_addresses, lines) == expected
        assert _read(read_addresses, iter(lines)) == expected


def test_read_addresses_names_a_bad_line_past_the_first_block():
    lines = ["2001:db8::\n"] * 4096 + ["2001:db8::zz\n", "::1\n"]
    with pytest.raises(ValueError, match="^line 4097: "):
        list(read_addresses(lines))
    assert list(read_addresses(lines[:4096] + lines[-1:])) == [addr("2001:db8::")] * 4096 + [1]


def test_a_bad_line_is_named_before_a_later_undecodable_byte(tmp_path):
    """Both errors sit in one block, and the file is decoded in chunks of a
    few KiB, so the decode error fires after line 2 has been read."""
    path = tmp_path / "targets.txt"
    tail = b"2001:db8::1\n" * 3000 + b"\xff\n"
    path.write_bytes(b"::1\nzz\n" + tail)
    for read in (read_addresses, lambda ls: read_records(ls, parse_target_line)):
        with open(path, encoding="utf-8") as fh, pytest.raises(ValueError, match="^line 2: "):
            list(read(fh))
    # With no bad line, the decode error itself is raised.
    path.write_bytes(b"::1\n::2\n" + tail)
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError):
        list(read_addresses(fh))


prefix_file_lines = st.one_of(
    st.builds(
        lambda a, n: f"{format_address(a & ~((1 << (128 - n)) - 1))}/{n}",
        addresses, st.integers(0, 128),
    ),
    st.builds(lambda a, n: f"{format_address(a)}/{n}", addresses, st.integers(0, 128)),
    addresses.map(format_address),
    st.sampled_from([
        "2001:db8::/129", "2001:db8::/-1", "2001:db8::/x", "2001:db8::/", "/48",
        "2001:db8::/4_8", "2001:db8::/+48", "2001:db8:: / 48", "2001:db8::/48/1",
        "fe80::%eth0/64", "2001:db8::zz/48", "", "   ", "# note",
    ]),
)


@settings(max_examples=500, deadline=None)
@given(
    lines=st.lists(
        st.tuples(st.sampled_from(["", " "]), prefix_file_lines, st.sampled_from(["", "\t"]))
        .map(lambda parts: "".join(parts) + "\n"),
        max_size=30,
    ),
    block=st.sampled_from([1, 2, 3, 7, target_gen.READ_BLOCK]),
)
def test_read_prefixes_matches_read_records(lines, block):
    """Block parsing yields the prefixes, or names the line, that
    `read_records(lines, parse_prefix)` does."""
    expected = _read(lambda ls: read_records(ls, parse_prefix), lines)
    with mock.patch.object(target_gen, "READ_BLOCK", block):
        assert _read(read_prefixes, lines) == expected
        assert _read(read_prefixes, iter(lines)) == expected


BLOCK_READERS = {
    "addresses": (read_addresses, parse_target_line, probe_list_lines),
    "hitlist": (read_hitlist, parse_address, probe_list_lines),
    "prefixes": (read_prefixes, parse_prefix, prefix_file_lines),
}


@pytest.mark.parametrize("name", list(BLOCK_READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, 7, target_gen.READ_BLOCK]))
def test_block_readers_match_read_records(name, data, block):
    """Each block reader yields what `read_records` with its line parser
    yields, or names the same line, on lines without their newlines, as
    `text_lines` gives them, and on raw lines."""
    read, parse, texts = BLOCK_READERS[name]
    lines = data.draw(st.lists(
        st.tuples(st.sampled_from(["", "", " "]), texts, st.sampled_from(["", "", "\t"]))
        .map("".join),
        max_size=30,
    ))
    raw = [line + "\n" for line in lines]
    expected = _read(lambda ls: read_records(ls, parse), lines)
    assert _read(lambda ls: read_records(ls, parse), raw) == expected
    with mock.patch.object(target_gen, "READ_BLOCK", block):
        for given_lines in (lines, iter(lines), raw):
            assert _read(read, given_lines) == expected


# --- exclusion -----------------------------------------------------------------

# Anchors near both ends of the address space and in the middle, so that
# prefixes of nearby lengths nest, overlap, touch and sit apart.
EXCLUDE_ANCHORS = (0, 5, 300, addr("2001:db8::"), addr("2001:db8::1:0"), MAX128 - 2, MAX128)
EXCLUDE_LENGTHS = (0, 1, 112, 119, 120, 123, 127, 128, 128)


@st.composite
def exclusion_cases(draw):
    """(targets, prefixes): targets at and around every prefix's edges, at 0
    and 2^128 - 1, arranged sorted, descending, shuffled or repeated."""
    prefixes = [
        Ipv6Prefix(a & ~((1 << (128 - n)) - 1), n)
        for a, n in draw(st.lists(
            st.tuples(st.sampled_from(EXCLUDE_ANCHORS), st.sampled_from(EXCLUDE_LENGTHS)),
            max_size=6,
        ))
    ]
    edges = {0, MAX128, *EXCLUDE_ANCHORS}
    for p in prefixes:
        end = p.bits + (1 << (128 - p.length))
        edges |= {p.bits - 1, p.bits, p.bits + 1, end - 1, end}
    pool = sorted(e for e in edges if 0 <= e <= MAX128)
    values = draw(st.lists(st.sampled_from(pool), max_size=80))
    arrange = draw(st.sampled_from(["sorted", "descending", "shuffled", "repeated", "two runs", "drawn"]))
    if arrange == "sorted":
        values.sort()
    elif arrange == "descending":
        values.sort(reverse=True)
    elif arrange == "shuffled":
        values = draw(st.permutations(sorted(values)))
    elif arrange == "repeated":
        values = sorted(values * 3)
    elif arrange == "two runs":
        values = sorted(values) + sorted(values)
    return values, prefixes


@settings(max_examples=500, deadline=None)
@given(case=exclusion_cases(), step=st.sampled_from([1, 2, 3, 64]))
@example(case=([], [P("::/0")]), step=1)
@example(case=([0, MAX128], []), step=1)
@example(case=([0, 1, 2, MAX128], [P("::/0")]), step=1)
def test_exclude_matches_ipaddress(case, step):
    """Every target that no prefix holds, in input order and with repeats,
    whatever the runs look like (`_RUN_STEP` shrunk so short lists have long
    runs)."""
    targets, prefixes = case
    nets = [ipaddress.IPv6Network((p.bits, p.length)) for p in prefixes]
    expected = [t for t in targets if not any(ipaddress.IPv6Address(t) in n for n in nets)]
    with mock.patch.object(target_gen, "_RUN_STEP", step):
        assert exclude(targets, prefixes) == expected
        assert exclude(tuple(targets), iter(prefixes)) == expected


class CountingBisect:
    """Stands in for the `bisect` module and counts the calls made."""

    def __init__(self):
        self.calls = 0

    def bisect_left(self, *args):
        self.calls += 1
        return bisect.bisect_left(*args)

    def bisect_right(self, *args):
        self.calls += 1
        return bisect.bisect_right(*args)


def test_exclude_cuts_a_sorted_list_by_range_not_per_target(monkeypatch):
    """A /48 of /64 targets less fourteen /52s: a few bisections per excluded
    range, not one per target."""
    base = addr("2001:db8:2::")
    targets = [base | (i << 64) for i in range(1 << 16)]
    blocks = random.Random(1).sample(range(16), 14)
    prefixes = [Ipv6Prefix(base | (b << 76), 52) for b in blocks]
    prefixes += [P("2001:db8:100::/40"), P("::/8"), P("2001:db8:2::/64")]  # outside or inside
    counter = CountingBisect()
    monkeypatch.setattr(target_gen, "bisect", counter)
    got = exclude(targets, prefixes)
    assert got == [t for i, t in enumerate(targets) if i and i >> 12 not in blocks]
    assert counter.calls <= 4 * len(prefixes)


def test_exclude_filters_a_shuffled_list():
    targets = [addr("2001:db8::") | (i << 64) for i in range(5000)]
    random.Random(2).shuffle(targets)
    prefixes = [P("2001:db8:0:800::/53"), P("2001:db8::/56")]
    nets = [ipaddress.IPv6Network(str(p)) for p in prefixes]
    expected = [t for t in targets if not any(ipaddress.IPv6Address(t) in n for n in nets)]
    assert exclude(targets, prefixes) == expected
    assert len(expected) == 5000 - 2048 - 256


# --- stage 1 -----------------------------------------------------------------


def test_stage1_one_target_per_distinct_prefix():
    prefixes = [P("2001:db8::/32"), P("2001:db8:1::/48"), P("2001:db8::/32")]
    assert list(gen_stage1(prefixes)) == [addr("2001:db8::"), addr("2001:db8:1::")]
    entries = list(stage1_plan(prefixes))
    assert [len(indices) for _, _, indices in entries] == [1, 1]
    assert all(stage is Stage.BGP_AS_ANNOUNCED for _, stage, _ in entries)
    assert entries[1][0] == P("2001:db8:1::/48")


def test_stage1_collapses_shared_sra():
    # a /32 and its first /48 share the SRA address; the stream must not repeat it
    targets = list(gen_stage1([P("2001:db8::/32"), P("2001:db8::/48")]))
    assert len(targets) == 1


# --- stage 2 -----------------------------------------------------------------


def test_stage2_47_splits_into_two_48s():
    got = list(gen_stage2([P("2001:db8:2::/47")]))
    assert got == [addr("2001:db8:2::"), addr("2001:db8:3::")]


@pytest.mark.parametrize("length", range(40, 49))
def test_stage2_counts_by_brute_force(length):
    prefix = f"2001:db8::/{length}"
    expected = oracle_stage2_set([prefix])
    got = list(gen_stage2([P(prefix)]))
    assert len(got) == 1 << (48 - length)
    assert set(got) == expected
    assert plan_size(stage2_plan([P(prefix)])) == len(expected)


def test_stage2_supernet_rule_for_more_specifics():
    # /56 alone: probe its covering /48
    assert list(gen_stage2([P("2001:db8:1:200::/56")])) == [addr("2001:db8:1::")]
    (record,) = ndjson_records(stage2_plan([P("2001:db8:1:200::/56")]))
    assert record["origin"] == "2001:db8:1::/48"
    # covered by an announcement of length <= 48: the /56 emits nothing extra
    both = list(gen_stage2([P("2001:db8:1:200::/56"), P("2001:db8::/32")]))
    assert len(both) == 65536
    assert set(both) == oracle_stage2_set(["2001:db8::/32"])


def test_stage2_two_56s_same_supernet_dedup():
    got = list(gen_stage2([P("2001:db8:1:200::/56"), P("2001:db8:1:300::/56")]))
    assert got == [addr("2001:db8:1::")]


def test_stage2_nested_announcements_emit_union_once():
    prefixes = ["2001:db8::/44", "2001:db8:5::/48", "2001:db8::/46"]
    got = list(gen_stage2([P(s) for s in prefixes]))
    assert len(got) == len(set(got))
    assert set(got) == oracle_stage2_set(prefixes)
    assert plan_size(stage2_plan([P(s) for s in prefixes])) == len(got)


@st.composite
def prefix_sets(draw):
    n = draw(st.integers(1, 8))
    out = []
    for _ in range(n):
        length = draw(st.integers(40, 52))
        block = draw(st.integers(0, (1 << 16) - 1))
        base = addr("2001:db8::") | (block << (128 - 48))
        mask = ~((1 << (128 - length)) - 1) & ((1 << 128) - 1)
        out.append(Ipv6Prefix(base & mask, length))
    return out


@settings(max_examples=60, deadline=None)
@given(prefixes=prefix_sets())
def test_stage2_matches_oracle_on_random_sets(prefixes):
    strs = [str(p) for p in prefixes]
    got = list(gen_stage2(prefixes))
    assert len(got) == len(set(got))
    assert set(got) == oracle_stage2_set(strs)
    assert plan_size(stage2_plan(prefixes)) == len(got)


@settings(max_examples=40, deadline=None)
@given(blocks=st.sets(st.integers(0, 255), min_size=1, max_size=10), data=st.data())
def test_stage2_count_is_sum_over_nonoverlapping_inputs(blocks, data):
    prefixes = []
    for b in sorted(blocks):
        length = data.draw(st.integers(48, 48 + 0) if False else st.integers(40, 48))
        # distinct /40 blocks cannot overlap regardless of chosen length >= 40
        base = addr("2001:db8::") | (b << (128 - 40))
        prefixes.append(Ipv6Prefix(base, length))
    expected = sum(1 << (48 - p.length) for p in prefixes)
    assert plan_size(stage2_plan(prefixes)) == expected


def test_stage2_is_lazy_over_the_whole_space():
    assert list(islice(gen_stage2([P("::/0")]), 3)) == [0, 1 << 80, 2 << 80]


# --- stage 3 -----------------------------------------------------------------


def test_stage3_only_exact_48s_contribute():
    prefixes = [P("2001:db8::/47"), P("2001:db8:1::/48"), P("2001:db8:2:300::/56")]
    got = list(gen_stage3(prefixes))
    assert len(got) == 65536
    assert set(got) == oracle_stage3_set([str(p) for p in prefixes])
    assert plan_size(stage3_plan(prefixes)) == 65536


def test_stage3_spot_values_and_dedup():
    prefixes = [P("2001:db8:1::/48"), P("2001:db8:1::/48")]
    got = list(gen_stage3(prefixes))
    assert len(got) == 65536
    assert got[0] == addr("2001:db8:1::")
    assert got[1] == addr("2001:db8:1:1::")
    assert got[-1] == addr("2001:db8:1:ffff::")
    records = ndjson_records(take(stage3_plan(prefixes), 4))
    assert [r["stage"] for r in records] == ["bgp64"] * 4


# --- route6 ------------------------------------------------------------------


def test_route6_small_space_enumerates_fully():
    cfg = GenerationConfig(rng_seed=7)
    got = list(gen_route6([P("2001:db8:0:10::/60")], cfg))
    assert len(got) == 16
    assert set(got) == oracle_64s("2001:db8:0:10::/60")


def test_route6_exact_64_yields_itself():
    cfg = GenerationConfig(rng_seed=1)
    got = list(gen_route6([P("2001:db8:1:2::/64")], cfg))
    assert got == [addr("2001:db8:1:2::")]


def test_route6_longer_than_64_probes_supernet():
    cfg = GenerationConfig(rng_seed=1)
    prefixes = [P("2001:db8:1:2:8000::/72")]
    assert list(gen_route6(prefixes, cfg)) == [addr("2001:db8:1:2::")]
    (record,) = ndjson_records(route6_plan(prefixes, cfg))
    assert record["stage"] == "route6_random64"


def test_route6_sample_size_and_distinctness():
    cfg = GenerationConfig(route6_samples_per_prefix=100, rng_seed=3)
    got = list(gen_route6([P("2001:db8::/48")], cfg))
    assert len(got) == 100
    assert len(set(got)) == 100
    target_space = oracle_64s("2001:db8::/48")
    assert all(a in target_space for a in got)


def test_route6_deterministic_per_seed():
    p = [P("2001:db8::/48")]
    a = list(gen_route6(p, GenerationConfig(route6_samples_per_prefix=50, rng_seed=11)))
    b = list(gen_route6(p, GenerationConfig(route6_samples_per_prefix=50, rng_seed=11)))
    c = list(gen_route6(p, GenerationConfig(route6_samples_per_prefix=50, rng_seed=12)))
    assert a == b
    assert a != c


def test_route6_per_prefix_output_independent_of_shard():
    cfg = GenerationConfig(route6_samples_per_prefix=20, rng_seed=5)
    alone = list(gen_route6([P("2001:db8:7::/48")], cfg))
    shard = [
        t
        for t in gen_route6([P("2001:db8:6::/48"), P("2001:db8:7::/48")], cfg)
        if P("2001:db8:7::/48").covers_address(t)
    ]
    assert alone == shard


@st.composite
def disjoint_prefix_sets(draw):
    """Two lists of prefixes, A and B, that share no address.

    Each prefix lies in one of a few distinct /44 blocks, and every block
    belongs to A or to B.  Prefixes of one list may nest, repeat or share a
    /64 supernet.
    """
    blocks = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    sides = {b: draw(st.booleans()) for b in blocks}
    a, b = [], []
    for _ in range(draw(st.integers(1, 6))):
        block = draw(st.sampled_from(blocks))
        length = draw(st.sampled_from([44, 47, 48, 56, 60, 62, 64, 66]))
        bits = addr("2001:db8::") | block << 84 | draw(st.integers(0, (1 << 22) - 1)) << 62
        (a if sides[block] else b).append(Ipv6Prefix(bits & ~((1 << (128 - length)) - 1), length))
    return a, b


@settings(max_examples=100, deadline=None)
@given(sets=disjoint_prefix_sets(), k=st.integers(1, 8), seed=st.integers(0, (1 << 64) - 1))
def test_route6_disjoint_shards_concatenate(sets, k, seed):
    # Each prefix draws from its own generator, so disjoint shards of a
    # prefix list can be generated apart and joined.
    a, b = sets
    cfg = GenerationConfig(route6_samples_per_prefix=k, rng_seed=seed)
    assert list(gen_route6(a + b, cfg)) == list(gen_route6(a, cfg)) + list(gen_route6(b, cfg))


def test_route6_overlapping_inputs_never_repeat_addresses():
    cfg = GenerationConfig(route6_samples_per_prefix=4, rng_seed=2)
    wide, narrow = P("2001:db8:0:30::/62"), P("2001:db8:0:30::/63")
    got = list(gen_route6([wide, narrow], cfg))
    assert len(got) == len(set(got)) == 4  # wide emits all 4, narrow adds nothing
    flipped = list(gen_route6([narrow, wide], cfg))
    assert len(flipped) == len(set(flipped)) == 4
    assert plan_size(route6_plan([wide, narrow], cfg)) == 4
    assert plan_size(route6_plan([narrow, wide], cfg)) == 4


def test_count_route6_matches_generator_with_and_without_overlap():
    cfg = GenerationConfig(route6_samples_per_prefix=9, rng_seed=4)
    disjoint = [P("2001:db8:1::/48"), P("2001:db8:2::/48"), P("2001:db8:3:4::/64")]
    assert plan_size(route6_plan(disjoint, cfg)) == len(list(gen_route6(disjoint, cfg)))
    overlapping = disjoint + [P("2001:db8:1:ff00::/56"), P("2001:db8:3:4:8000::/66")]
    assert plan_size(route6_plan(overlapping, cfg)) == len(list(gen_route6(overlapping, cfg)))


# --- hitlist -----------------------------------------------------------------


def test_hitlist_masks_to_64_and_dedups():
    addresses = [addr("2001:db8:1:2:3::1"), addr("2001:db8:1:2:3::2")]
    assert list(gen_from_hitlist(addresses)) == [addr("2001:db8:1:2::")]
    (record,) = ndjson_records(hitlist_plan(addresses))
    assert record["stage"] == "hitlist64"
    assert record["origin"] == "2001:db8:1:2::/64"
    assert plan_size(hitlist_plan(addresses)) == 1


# --- combined bgp stages -----------------------------------------------------


def test_bgp_all_dedups_across_stages():
    prefixes = [P("2001:db8::/47"), P("2001:db8:1::/48")]
    got = list(gen_bgp_all(prefixes))
    assert len(got) == len(set(got))
    # oracle: union of the three stage sets
    strs = [str(p) for p in prefixes]
    s1 = {p.bits for p in prefixes}
    expected = s1 | oracle_stage2_set(strs) | oracle_stage3_set(strs)
    assert set(got) == expected
    counts = count_bgp_all(prefixes)
    assert counts["stage1"] == 2
    assert counts["stage2"] == 2
    assert counts["stage3"] == 65536
    assert counts["deduplicated_total"] == len(expected)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bgp_all_counts_match_enumeration(data):
    n = data.draw(st.integers(1, 5))
    prefixes = []
    for _ in range(n):
        length = data.draw(st.sampled_from([44, 46, 47, 48, 48, 56]))
        block = data.draw(st.integers(0, 15))
        base = addr("2001:db8::") | (block << (128 - 48))
        mask = ~((1 << (128 - length)) - 1) & ((1 << 128) - 1)
        prefixes.append(Ipv6Prefix(base & mask, length))
    got = list(gen_bgp_all(prefixes))
    assert len(got) == len(set(got))
    strs = texts(prefixes)
    assert count_bgp_all(prefixes) == {
        "stage1": len(plan_oracle.stage1(strs)),
        "stage2": len(plan_oracle.stage2(strs)),
        "stage3": len(plan_oracle.stage3(strs)),
        "deduplicated_total": len(got),
    }


# --- counts against enumeration ---------------------------------------------


@st.composite
def overlapping_prefixes(draw):
    """Up to six prefixes inside 2001:db8::/46, so nesting and repeats are common."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.sampled_from([46, 47, 48, 52, 56, 60, 62, 63, 64, 66]))
        bits = addr("2001:db8::") | (draw(st.integers(0, 3)) << 80)
        bits |= draw(st.integers(0, 3)) << 64 | draw(st.integers(0, 1)) << 62
        out.append(Ipv6Prefix(bits & ~((1 << (128 - length)) - 1), length))
    return out


def texts(prefixes) -> list[str]:
    """Each prefix's text, as ipaddress writes it."""
    return [str(ipaddress.IPv6Network((p.bits, p.length))) for p in prefixes]


def hits(prefixes) -> list[int]:
    """A hitlist of one host address inside each prefix."""
    return [p.bits | 7 for p in prefixes]


_CFG = GenerationConfig(route6_samples_per_prefix=5, rng_seed=9)


def route6_oracle(prefixes) -> list[tuple[int, str, str]]:
    """route6's targets as plan_oracle lists them, composed from runs of one
    prefix each.

    Whatever else is in the list, a prefix of length L draws min(k, 2^(64-L))
    distinct /64 anycast addresses inside its own (or, past /64, its /64
    supernet's) range; the whole list keeps each address at the first prefix
    that drew it.
    """
    k = _CFG.route6_samples_per_prefix
    out, seen = [], set()
    for p in dict.fromkeys(prefixes):
        net = ipaddress.IPv6Network((p.bits, p.length))
        if net.prefixlen > 64:
            net = net.supernet(new_prefix=64)
        alone = list(gen_route6([p], _CFG))
        assert len(set(alone)) == len(alone) == min(k, 1 << (64 - net.prefixlen))
        for address in alone:
            assert address % (1 << 64) == 0 and ipaddress.IPv6Address(address) in net
            if address not in seen:
                seen.add(address)
                out.append((address, str(net), "route6_random64"))
    return out


# name: (generator, count, plan, oracle), each of one prefix list
_COUNTED_GENERATORS = {
    "stage1": (
        gen_stage1,
        lambda ps: plan_size(stage1_plan(ps)),
        stage1_plan,
        lambda ps: plan_oracle.stage1(texts(ps)),
    ),
    "stage2": (
        gen_stage2,
        lambda ps: plan_size(stage2_plan(ps)),
        stage2_plan,
        lambda ps: plan_oracle.stage2(texts(ps)),
    ),
    "stage3": (
        gen_stage3,
        lambda ps: plan_size(stage3_plan(ps)),
        stage3_plan,
        lambda ps: plan_oracle.stage3(texts(ps)),
    ),
    "all": (
        gen_bgp_all,
        lambda ps: count_bgp_all(ps)["deduplicated_total"],
        bgp_all_plan,
        lambda ps: plan_oracle.bgp_all(texts(ps)),
    ),
    "route6": (
        lambda ps: gen_route6(ps, _CFG),
        lambda ps: plan_size(route6_plan(ps, _CFG)),
        lambda ps: route6_plan(ps, _CFG),
        route6_oracle,
    ),
    "hitlist": (
        lambda ps: gen_from_hitlist(hits(ps)),
        lambda ps: plan_size(hitlist_plan(hits(ps))),
        lambda ps: hitlist_plan(hits(ps)),
        lambda ps: plan_oracle.hitlist(str(ipaddress.IPv6Address(a)) for a in hits(ps)),
    ),
}


@pytest.mark.parametrize("name", sorted(_COUNTED_GENERATORS))
@settings(max_examples=25, deadline=None)
@given(prefixes=overlapping_prefixes())
def test_every_count_equals_its_stream_length(name, prefixes):
    gen, count, plan, oracle = _COUNTED_GENERATORS[name]
    want = oracle(prefixes)
    got = list(gen(prefixes))
    assert len(got) == len(set(got))
    assert got == [address for address, _, _ in want]
    assert count(prefixes) == plan_size(plan(prefixes)) == len(want)
    # The NDJSON probe list names, per target, the prefix and rule that
    # produced it.
    records = ndjson_records(plan(prefixes))
    addresses = parse_addresses([r["address"] for r in records])
    assert [(a, r["origin"], r["stage"]) for a, r in zip(addresses, records)] == want


# --- longest-prefix match ----------------------------------------------------


def test_prefix_table_stored_none_shadows_a_shorter_prefix():
    # The simulator stores None for a route whose `default` next hop does not
    # resolve; that must not fall through to a shorter covering route.
    table = PrefixTable(
        [(P("2001:db8::/32"), "wide"), (P("2001:db8:1::/48"), None)], default="miss"
    )
    inside = parse_address("2001:db8:1::5")
    assert table.lookup(inside) is None
    assert table.covers(inside)
    assert table.lookup(parse_address("2001:db8:2::5")) == "wide"
    outside = parse_address("2001:db9::1")
    assert table.lookup(outside) == "miss"
    assert not table.covers(outside)


# --- output formats ----------------------------------------------------------


def test_output_formats():
    prefixes = [P("2001:db8:2::/47")]
    assert format_address(next(gen_stage2(prefixes))) == "2001:db8:2::"
    assert "".join(plan_ndjson(take(stage2_plan(prefixes), 1))) == (
        '{"address": "2001:db8:2::", "origin": "2001:db8:2::/47", "stage": "bgp48"}\n'
    )


# --- probe-list text ---------------------------------------------------------

# Shifts that the text writer fills in one group at a time, and shifts that
# it must format address by address (not a multiple of 16, or below 64).
_GRID_SHIFTS = (64, 80, 96, 112)
_OTHER_SHIFTS = (72, 48, 0)
_GROUPS = st.sampled_from([0, 1, 0xFFFF]) | st.integers(0, 0xFFFF)


def _range_entry(shift: int, start: int, length: int) -> tuple:
    """A plan entry of targets `idx << shift`, idx in [start, start + length)."""
    sublen = 128 - shift
    stop = min(start + length, 1 << sublen)
    if shift == 64:
        return Ipv6Prefix(0, 0), Stage.BGP_64, range(start, stop)
    if shift == 80:
        return Ipv6Prefix(0, 0), Stage.BGP_48, range(start, stop)
    # A stage-1 entry's subnets have its origin's length.
    return Ipv6Prefix(0, sublen), Stage.BGP_AS_ANNOUNCED, range(start, stop)


@st.composite
def text_plans(draw):
    """Plans that mix grid ranges, ranges the writer must not fill in,
    single indices and route6 samples, starting at and crossing multiples
    of 4096 and 2^16."""
    plan = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            length = draw(st.sampled_from([56, 60, 63, 64]))
            bits = addr("2001:db8::") | draw(st.integers(0, 0xFF)) << 72
            prefix = Ipv6Prefix(bits & ~((1 << (128 - length)) - 1), length)
            cfg = GenerationConfig(
                route6_samples_per_prefix=draw(st.integers(1, 20)),
                rng_seed=draw(st.integers(0, 9)),
            )
            plan.append((prefix, Stage.ROUTE6_RANDOM_64, target_gen._Route6Samples(prefix, cfg)))
            continue
        shift = draw(st.sampled_from(_GRID_SHIFTS + _OTHER_SHIFTS))
        upper = 0
        # Mostly zero groups, so that runs of zeros tie and compete.
        for group in draw(st.lists(st.just(0) | _GROUPS, min_size=7, max_size=7)):
            upper = upper << 16 | group
        w = draw(st.sampled_from([0, 1, 4095, 4096, 0xF000, 0xFFFE, 0xFFFF]) | _GROUPS)
        start = (upper << 16 | w) & ((1 << (128 - shift)) - 1)
        length = draw(st.sampled_from([1, 2, 3, 4096, 4097]) | st.integers(1, 9000))
        plan.append(_range_entry(shift, start, length))
    return plan


def _expected_text(plan) -> str:
    return "".join(f"{format_address(a)}\n" for a in target_gen._walk(plan))


def _assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first line that differs: pytest's own
    diff of two long texts takes minutes."""
    if got != want:
        pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
        first = next(((i, g, w) for i, (g, w) in enumerate(pairs, 1) if g != w), None)
        pytest.fail(f"first differing line (number, got, expected): {first}")


@settings(max_examples=200, deadline=None)
@given(plan=text_plans(), n=st.integers(0, 20_000))
# address 0, and ::/96 formatted by ipaddress
@example(plan=[_range_entry(64, 0, 3), _range_entry(0, 0, 3)], n=6)
# a range that starts at w == 0 and crosses into the next /48
@example(plan=[_range_entry(64, 0x2001_0DB8_0001_0000, 3), _range_entry(64, 0x2001_0DB8_FFFF, 3)], n=6)
# 2001:0:0:0:1:: ties two runs of three zero groups: 2001::1:0:0:0
@example(plan=[_range_entry(48, 0x2001_0000_0000_0000_0001, 2)], n=2)
@example(plan=[_range_entry(64, 0x2001_0000_0000_0001, 2)], n=2)
def test_plan_text_equals_format_address_per_target(plan, n):
    expected = _expected_text(plan)
    blocks = list(target_gen.plan_text(plan))
    _assert_same_text("".join(blocks), expected)
    assert all(0 < block.count("\n") <= target_gen.READ_BLOCK for block in blocks)
    # The cut plan writes exactly the first n lines of the whole.
    head = "".join(expected.splitlines(keepends=True)[:n])
    _assert_same_text("".join(target_gen.plan_text(target_gen.take(plan, n))), head)
