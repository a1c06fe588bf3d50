"""Target generation tests.

Expected values come from independent oracles built on the ipaddress
module (subnets/supernet enumeration), not from the code under test.
"""

from __future__ import annotations

import ipaddress
import re
import socket
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srascan.target_gen import (
    GenerationConfig,
    Ipv6Prefix,
    PrefixTable,
    ProbeTarget,
    Stage,
    bgp_all_plan,
    count_bgp_all,
    count_hitlist,
    count_route6,
    count_stage1,
    count_stage2,
    count_stage3,
    format_address,
    gen_bgp_all,
    gen_from_hitlist,
    gen_route6,
    gen_stage1,
    gen_stage2,
    gen_stage3,
    hitlist_plan,
    parse_address,
    parse_prefix,
    read_prefix_file,
    route6_plan,
    stage1_plan,
    stage2_plan,
    stage3_plan,
    target_record,
    walk_records,
)


def P(text: str) -> Ipv6Prefix:
    return parse_prefix(text)


def addr(text: str) -> int:
    return int(ipaddress.IPv6Address(text))


# --- oracles -----------------------------------------------------------------


def oracle_stage2_set(prefix_strs: list[str]) -> set[int]:
    """Brute-force /48 partition using ipaddress arithmetic only."""
    nets = [ipaddress.IPv6Network(s) for s in prefix_strs]
    le48 = [n for n in nets if n.prefixlen <= 48]
    out = set()
    for n in le48:
        for sub in n.subnets(new_prefix=48):
            out.add(int(sub.network_address))
    for n in nets:
        if n.prefixlen > 48:
            sup = n.supernet(new_prefix=48)
            if not any(sup.subnet_of(m) for m in le48):
                out.add(int(sup.network_address))
    return out


def oracle_stage3_set(prefix_strs: list[str]) -> set[int]:
    out = set()
    for s in prefix_strs:
        n = ipaddress.IPv6Network(s)
        if n.prefixlen != 48:
            continue
        for sub in n.subnets(new_prefix=64):
            out.add(int(sub.network_address))
    return out


def oracle_64s(prefix_str: str) -> set[int]:
    n = ipaddress.IPv6Network(prefix_str)
    return {int(s.network_address) for s in n.subnets(new_prefix=64)}


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


def test_only_target_gen_imports_ipaddress():
    """Address text is written and read in one module, so it cannot drift."""
    src = Path(__file__).resolve().parent.parent / "src" / "srascan"
    importers = {
        path.name
        for path in src.glob("*.py")
        if re.search(r"^\s*(import|from)\s+ipaddress\b", path.read_text(), re.M)
    }
    assert importers == {"target_gen.py"}


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


def test_probe_target_validation():
    origin = P("2001:db8::/32")
    ProbeTarget(addr("2001:db8:5::"), origin, Stage.BGP_48)
    with pytest.raises(ValueError):  # host bits below /48
        ProbeTarget(addr("2001:db8::1"), origin, Stage.BGP_48)
    with pytest.raises(ValueError):  # not covered by origin
        ProbeTarget(addr("2001:dead::"), origin, Stage.BGP_48)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(route6_samples_per_prefix=0)
    with pytest.raises(ValueError):
        GenerationConfig(rng_seed=1 << 64)


def test_read_prefix_file_reports_line_number():
    lines = ["2001:db8::/32\n", "# comment\n", "\n", "2001:db8::1/48\n"]
    with pytest.raises(ValueError, match="line 4"):
        list(read_prefix_file(lines))


# --- stage 1 -----------------------------------------------------------------


def test_stage1_one_target_per_distinct_prefix():
    prefixes = [P("2001:db8::/32"), P("2001:db8:1::/48"), P("2001:db8::/32")]
    assert list(gen_stage1(prefixes)) == [addr("2001:db8::"), addr("2001:db8:1::")]
    records = list(walk_records(stage1_plan(prefixes)))
    assert all(t.stage is Stage.BGP_AS_ANNOUNCED for t in records)
    assert records[1].origin == P("2001:db8:1::/48")


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
    assert count_stage2([P(prefix)]) == len(expected)


def test_stage2_supernet_rule_for_more_specifics():
    # /56 alone: probe its covering /48
    assert list(gen_stage2([P("2001:db8:1:200::/56")])) == [addr("2001:db8:1::")]
    (record,) = walk_records(stage2_plan([P("2001:db8:1:200::/56")]))
    assert record.origin == P("2001:db8:1::/48")
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
    assert count_stage2([P(s) for s in prefixes]) == len(got)


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
    assert count_stage2(prefixes) == len(got)


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
    assert count_stage2(prefixes) == expected


def test_stage2_is_lazy_over_the_whole_space():
    assert list(islice(gen_stage2([P("::/0")]), 3)) == [0, 1 << 80, 2 << 80]


# --- stage 3 -----------------------------------------------------------------


def test_stage3_only_exact_48s_contribute():
    prefixes = [P("2001:db8::/47"), P("2001:db8:1::/48"), P("2001:db8:2:300::/56")]
    got = list(gen_stage3(prefixes))
    assert len(got) == 65536
    assert set(got) == oracle_stage3_set([str(p) for p in prefixes])
    assert count_stage3(prefixes) == 65536


def test_stage3_spot_values_and_dedup():
    prefixes = [P("2001:db8:1::/48"), P("2001:db8:1::/48")]
    got = list(gen_stage3(prefixes))
    assert len(got) == 65536
    assert got[0] == addr("2001:db8:1::")
    assert got[1] == addr("2001:db8:1:1::")
    assert got[-1] == addr("2001:db8:1:ffff::")
    records = list(islice(walk_records(stage3_plan(prefixes)), 4))
    assert all(t.stage is Stage.BGP_64 for t in records)


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
    (record,) = walk_records(route6_plan(prefixes, cfg))
    assert record.stage is Stage.ROUTE6_RANDOM_64


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
    assert count_route6([wide, narrow], cfg) == 4
    assert count_route6([narrow, wide], cfg) == 4


def test_count_route6_matches_generator_with_and_without_overlap():
    cfg = GenerationConfig(route6_samples_per_prefix=9, rng_seed=4)
    disjoint = [P("2001:db8:1::/48"), P("2001:db8:2::/48"), P("2001:db8:3:4::/64")]
    assert count_route6(disjoint, cfg) == len(list(gen_route6(disjoint, cfg)))
    overlapping = disjoint + [P("2001:db8:1:ff00::/56"), P("2001:db8:3:4:8000::/66")]
    assert count_route6(overlapping, cfg) == len(list(gen_route6(overlapping, cfg)))


# --- hitlist -----------------------------------------------------------------


def test_hitlist_masks_to_64_and_dedups():
    addresses = [addr("2001:db8:1:2:3::1"), addr("2001:db8:1:2:3::2")]
    assert list(gen_from_hitlist(addresses)) == [addr("2001:db8:1:2::")]
    (record,) = walk_records(hitlist_plan(addresses))
    assert record.stage is Stage.HITLIST_64
    assert record.origin == P("2001:db8:1:2::/64")
    assert count_hitlist(addresses) == 1


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
    assert count_bgp_all(prefixes)["deduplicated_total"] == len(got)


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


_CFG = GenerationConfig(route6_samples_per_prefix=5, rng_seed=9)
_COUNTED_GENERATORS = {
    "stage1": (gen_stage1, count_stage1, stage1_plan),
    "stage2": (gen_stage2, count_stage2, stage2_plan),
    "stage3": (gen_stage3, count_stage3, stage3_plan),
    "all": (gen_bgp_all, lambda ps: count_bgp_all(ps)["deduplicated_total"], bgp_all_plan),
    "route6": (
        lambda ps: gen_route6(ps, _CFG),
        lambda ps: count_route6(ps, _CFG),
        lambda ps: route6_plan(ps, _CFG),
    ),
    "hitlist": (
        lambda ps: gen_from_hitlist(p.bits | 7 for p in ps),
        lambda ps: count_hitlist(p.bits | 7 for p in ps),
        lambda ps: hitlist_plan(p.bits | 7 for p in ps),
    ),
}


@pytest.mark.parametrize("name", sorted(_COUNTED_GENERATORS))
@settings(max_examples=25, deadline=None)
@given(prefixes=overlapping_prefixes())
def test_every_count_equals_its_stream_length(name, prefixes):
    gen, count, plan = _COUNTED_GENERATORS[name]
    got = list(gen(prefixes))
    assert len(got) == len(set(got))
    assert count(prefixes) == len(got)
    # The records walker yields the same addresses, in order, with provenance
    # that passes ProbeTarget's validation when built again.
    records = list(walk_records(plan(prefixes)))
    assert [t.address for t in records] == got
    for t in records:
        assert type(t) is ProbeTarget
        assert ProbeTarget(t.address, t.origin, t.stage) == t


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
    assert target_record(next(walk_records(stage2_plan(prefixes)))) == {
        "address": "2001:db8:2::",
        "origin": "2001:db8:2::/47",
        "stage": "bgp48",
    }
