"""Reply-stream analysis against hand-worked examples and brute force.

Longest-prefix matching is cross-checked against the ipaddress module and
set comparisons against itertools, so the implementations under test never
get to grade themselves.
"""

import csv
import ipaddress
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srascan.analysis import (
    PrefixTable,
    RouterObservation,
    alias_filter,
    build_visibility_matrix,
    compare_datasets,
    detect_loops,
    enclosing_prefix,
    match_replies,
    sra_stability,
    stability_mapping,
    summarize_scan,
    visibility,
)
from srascan import cli
from srascan.probe_engine import ReplyKind, ReplyRecord
from srascan.addresses import parse_address, parse_label_row, parse_prefix, read_records

A = parse_address

_TYPE_BY_KIND = {
    ReplyKind.ECHO_REPLY: 129,
    ReplyKind.DEST_UNREACHABLE: 1,
    ReplyKind.PACKET_TOO_BIG: 2,
    ReplyKind.TIME_EXCEEDED: 3,
    ReplyKind.PARAM_PROBLEM: 4,
}


def rec(kind, source, target, code=0, ts=0.0):
    return ReplyRecord(
        kind=kind,
        icmp_type=_TYPE_BY_KIND[kind],
        code=code,
        source=A(source) if isinstance(source, str) else source,
        embedded_target=(
            A(target) if isinstance(target, str) else target
        ),
        received_hop_limit=64,
        timestamp=ts,
    )


T1, T2, T3 = "2001:db8:1::", "2001:db8:2::", "2001:db8:3::"
R1, R2 = "2001:db8:fe::1", "2001:db8:fe::2"


class TestMatching:
    def test_every_probe_appears_even_in_silence(self):
        result = match_replies([A(T1), A(T2), A(T3)], [])
        assert result.probed == {A(T1), A(T2), A(T3)}
        assert result.answers == {}

    def test_replies_land_on_their_probe(self):
        records = [
            rec(ReplyKind.ECHO_REPLY, R1, T1),
            rec(ReplyKind.DEST_UNREACHABLE, R2, T1),
            rec(ReplyKind.ECHO_REPLY, R2, T2),
        ]
        result = match_replies([A(T1), A(T2), A(T3)], records)
        assert len(result.answers[A(T1)]) == 2
        assert len(result.answers[A(T2)]) == 1
        assert A(T3) in result.probed and A(T3) not in result.answers
        assert set(result.answers) == {A(T1), A(T2)}

    def test_unauthenticated_and_unknown_targets_are_unsolicited(self):
        records = [
            rec(ReplyKind.ECHO_REPLY, R1, None),
            rec(ReplyKind.ECHO_REPLY, R1, "2001:db8:ffff::"),  # never probed
        ]
        result = match_replies([A(T1)], records)
        assert A(T1) not in result.answers
        assert len(result.unsolicited) == 2


class TestAliasFilter:
    def test_self_sourced_replies_are_dropped(self):
        result = match_replies([A(T1)], [rec(ReplyKind.ECHO_REPLY, T1, T1)])
        assert alias_filter(result) == []

    def test_sources_inside_aliased_prefixes_are_dropped(self):
        aliased = [parse_prefix("2001:db8:bad::/48")]
        records = [
            rec(ReplyKind.ECHO_REPLY, "2001:db8:bad::77", T1),
            rec(ReplyKind.ECHO_REPLY, R1, T1),
        ]
        obs = alias_filter(match_replies([A(T1)], records), aliased)
        assert [o.router_ip for o in obs] == [A(R1)]

    def test_evidence_is_grouped_per_source_and_sorted(self):
        records = [
            rec(ReplyKind.ECHO_REPLY, R2, T2),
            rec(ReplyKind.ECHO_REPLY, R1, T1),
            rec(ReplyKind.DEST_UNREACHABLE, R1, T2),
        ]
        obs = alias_filter(match_replies([A(T1), A(T2)], records), scan_id=4)
        assert [o.router_ip for o in obs] == sorted([A(R1), A(R2)])
        by_ip = {o.router_ip: o for o in obs}
        assert by_ip[A(R1)].elicited_by == frozenset(
            {(A(T1), ReplyKind.ECHO_REPLY), (A(T2), ReplyKind.DEST_UNREACHABLE)}
        )
        assert all(o.scan_id == 4 for o in obs)


def linear_alias_filter(result, aliased, scan_id=0):
    """alias_filter with one covers_address test per aliased prefix."""
    aliased = list(aliased)
    evidence = defaultdict(set)
    for target in result.probed:
        for r in result.answers.get(target, ()):
            if r.source == target:
                continue
            if any(p.covers_address(r.source) for p in aliased):
                continue
            evidence[r.source].add((target, r.kind))
    return [
        RouterObservation(router_ip=ip, elicited_by=frozenset(ev), scan_id=scan_id)
        for ip, ev in sorted(evidence.items())
    ]


def linear_stability_mapping(result, aliased):
    """stability_mapping with one covers_address test per aliased prefix."""
    aliased = list(aliased)
    out = {}
    for target in result.probed:
        echo, other = [], []
        for r in result.answers.get(target, ()):
            if any(p.covers_address(r.source) for p in aliased):
                continue
            (echo if r.kind is ReplyKind.ECHO_REPLY else other).append(r.source)
        pool = echo or other
        out[target] = min(pool) if pool else None
    return out


# Six varying bits at top positions 50..55 and two low bits: prefixes of
# lengths 50..56 nest and overlap, /126 and /128 split the low bits.
_HI = st.integers(0, 63)
_LOW = st.integers(0, 3)


def _place(hi, low=0):
    return A("2001:db8::") | (hi << 72) | low


class TestAliasedPrefixFilter:
    @settings(max_examples=150, deadline=None)
    @given(
        aliased=st.lists(
            st.tuples(_HI, _LOW, st.sampled_from([32, 50, 51, 52, 54, 56, 64, 126, 128])),
            max_size=10,
        ),
        targets=st.lists(_HI, min_size=1, max_size=6, unique=True),
        replies=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.one_of(st.none(), st.tuples(_HI, _LOW)),  # None: from the target
                st.sampled_from(list(_TYPE_BY_KIND)),
            ),
            max_size=30,
        ),
        # Never probed: None is unauthenticated, low bit 1 is off every target.
        stray=st.lists(st.one_of(st.none(), _HI), max_size=5),
        rnd=st.randoms(use_true_random=False),
    )
    def test_matches_a_linear_scan_of_the_prefixes(
        self, aliased, targets, replies, stray, rnd
    ):
        prefixes = [enclosing_prefix(_place(hi, low), length) for hi, low, length in aliased]
        probed = [_place(hi) for hi in targets]
        records = []
        for i, src, kind in replies:
            target = probed[i % len(probed)]
            records.append(rec(kind, target if src is None else _place(*src), target))
        for hi in stray:
            records.append(rec(ReplyKind.ECHO_REPLY, R1, None if hi is None else _place(hi, 1)))
        rnd.shuffle(records)
        result = match_replies(probed, records)

        # Every record lands once, in `answers` under its own target or in
        # `unsolicited`, and only probed targets have answers.
        assert result.probed == set(probed)
        assert set(result.answers) <= result.probed
        for target, recs in result.answers.items():
            assert recs and all(r.embedded_target == target for r in recs)
        landed = [r for recs in result.answers.values() for r in recs] + result.unsolicited
        assert sorted(map(id, landed)) == sorted(map(id, records))
        assert len(result.unsolicited) == len(stray)

        got = alias_filter(result, iter(prefixes), scan_id=3)
        want = linear_alias_filter(result, prefixes, scan_id=3)
        assert [(o.router_ip, o.elicited_by, o.scan_id) for o in got] == [
            (o.router_ip, o.elicited_by, o.scan_id) for o in want
        ]
        assert stability_mapping(result, iter(prefixes)) == linear_stability_mapping(
            result, prefixes
        )

        # Neither the order of the replies nor that of the probe list
        # changes any result.
        rnd.shuffle(records)
        rnd.shuffle(probed)
        again = match_replies(probed, records)
        assert [(o.router_ip, o.elicited_by) for o in alias_filter(again, prefixes, 3)] == [
            (o.router_ip, o.elicited_by) for o in got
        ]
        assert summarize_scan(again) == summarize_scan(result)
        assert stability_mapping(again, prefixes) == stability_mapping(result, prefixes)
        assert detect_loops(again, 56) == detect_loops(result, 56)


class TestSummary:
    def fixture(self):
        records = [
            rec(ReplyKind.ECHO_REPLY, R1, T1),
            rec(ReplyKind.ECHO_REPLY, R2, T2),
            rec(ReplyKind.TIME_EXCEEDED, R2, T2),
            rec(ReplyKind.DEST_UNREACHABLE, "2001:db8:fe::3", T3),
            rec(ReplyKind.ECHO_REPLY, R1, None),  # unsolicited
        ]
        return match_replies([A(T1), A(T2), A(T3), A("2001:db8:4::")], records)

    def test_hand_counted_fixture(self):
        s = summarize_scan(self.fixture())
        assert s.targets_probed == 4
        assert s.replies_total == 5
        assert s.echo_replies == 2  # the unsolicited echo is not matched
        assert s.error_replies == 2
        assert s.distinct_sources == 3
        assert (s.echo_only_sources, s.error_only_sources, s.mixed_sources) == (1, 1, 1)
        assert s.reply_rate == pytest.approx(3 / 4)

    def test_source_classes_partition_the_sources(self):
        s = summarize_scan(self.fixture())
        assert s.echo_only_sources + s.error_only_sources + s.mixed_sources == s.distinct_sources

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(_TYPE_BY_KIND)),
                st.integers(0, 5),  # source index
                st.integers(0, 4),  # target index, 4 = unsolicited
            ),
            max_size=40,
        )
    )
    def test_invariants_hold_for_arbitrary_streams(self, triples):
        targets = [A(T1), A(T2), A(T3)]
        records = [
            rec(kind, A(R1) + s, targets[t] if t < 3 else None)
            for kind, s, t in triples
        ]
        summary = summarize_scan(match_replies(targets, records))
        assert summary.replies_total == len(records)
        assert (
            summary.echo_only_sources
            + summary.error_only_sources
            + summary.mixed_sources
            == summary.distinct_sources
        )
        assert 0.0 <= summary.reply_rate <= 1.0
        assert summary.echo_replies + summary.error_replies <= summary.replies_total

    def test_empty_scan_summarizes_to_zero(self):
        s = summarize_scan(match_replies([], []))
        assert s.targets_probed == 0 and s.reply_rate == 0.0


class TestVisibility:
    def test_partition_and_histogram(self):
        matrix = {
            A(R1): [True, True, True],
            A(R2): [True, False, True],
            A("2001:db8:fe::3"): [False, False, False],
        }
        report = visibility(matrix)
        assert report.scans == 3
        assert report.always == {A(R1)}
        assert report.sometimes == {A(R2)}
        assert report.never == {A("2001:db8:fe::3")}
        assert report.histogram == {0: 1, 2: 1, 3: 1}
        assert sum(report.histogram.values()) == len(matrix)

    def test_matrix_builder_uses_the_union_as_universe(self):
        matrix = build_visibility_matrix([{A(R1)}, {A(R1), A(R2)}])
        assert matrix == {A(R1): [True, True], A(R2): [False, True]}

    def test_fewer_than_two_scans_is_an_error(self):
        with pytest.raises(ValueError, match="two scans"):
            visibility({A(R1): [True]})

    def test_ragged_matrix_is_an_error(self):
        with pytest.raises(ValueError, match="ragged"):
            visibility({A(R1): [True, True], A(R2): [True]})


class TestStability:
    def scans(self):
        a, b, c, d = A(R1), A(R2), A("2001:db8:fe::3"), A("2001:db8:fe::4")
        t1, t2, t3 = A(T1), A(T2), A(T3)
        return [
            {t1: a, t2: b, t3: None},
            {t1: a, t2: c, t3: d},
            {t1: None, t2: c, t3: d},
        ]

    def test_against_first_scan(self):
        rows = sra_stability(self.scans(), baseline="first")
        assert rows[0].same == pytest.approx(1 / 3)
        assert rows[0].changed == pytest.approx(2 / 3)  # t2 moved, t3 lit up
        assert rows[0].no_response == 0.0
        assert rows[1].no_response == pytest.approx(1 / 3)
        assert rows[1].changed == pytest.approx(2 / 3)
        assert rows[1].same == 0.0

    def test_against_previous_scan(self):
        rows = sra_stability(self.scans(), baseline="previous")
        assert rows[1].same == pytest.approx(2 / 3)  # t2, t3 repeat scan 2
        assert rows[1].no_response == pytest.approx(1 / 3)

    def test_fractions_sum_to_one(self):
        for baseline in ("first", "previous"):
            for row in sra_stability(self.scans(), baseline=baseline):
                assert abs(row.same + row.changed + row.no_response - 1.0) < 1e-9

    def test_mismatched_target_sets_are_refused(self):
        scans = self.scans()
        del scans[1][A(T3)]
        with pytest.raises(ValueError, match="different target set"):
            sra_stability(scans)

    def test_unknown_baseline_is_refused(self):
        with pytest.raises(ValueError, match="baseline"):
            sra_stability(self.scans(), baseline="median")

    def test_needs_two_scans(self):
        with pytest.raises(ValueError, match="two scans"):
            sra_stability([{A(T1): A(R1)}])


class TestStabilityMapping:
    def test_echo_sources_beat_error_sources(self):
        records = [
            rec(ReplyKind.DEST_UNREACHABLE, "2001:db8:fe::1", T1),
            rec(ReplyKind.ECHO_REPLY, "2001:db8:fe::9", T1),
        ]
        mapping = stability_mapping(match_replies([A(T1)], records))
        assert mapping[A(T1)] == A("2001:db8:fe::9")

    def test_lowest_address_wins_ties(self):
        records = [
            rec(ReplyKind.ECHO_REPLY, R2, T1),
            rec(ReplyKind.ECHO_REPLY, R1, T1),
        ]
        mapping = stability_mapping(match_replies([A(T1)], records))
        assert mapping[A(T1)] == min(A(R1), A(R2))

    def test_silent_targets_map_to_none(self):
        mapping = stability_mapping(match_replies([A(T1)], []))
        assert mapping == {A(T1): None}

    def test_aliased_sources_are_ignored(self):
        records = [rec(ReplyKind.ECHO_REPLY, "2001:db8:bad::1", T1)]
        mapping = stability_mapping(
            match_replies([A(T1)], records), aliased=[parse_prefix("2001:db8:bad::/48")]
        )
        assert mapping[A(T1)] is None


class TestLoopDetection:
    def fixture(self):
        ta, tb, tc = "2001:db8:aaaa::100", "2001:db8:bbbb::100", "2001:db8:cccc::100"
        records = [
            rec(ReplyKind.TIME_EXCEEDED, R1, ta),
            rec(ReplyKind.TIME_EXCEEDED, R1, ta),
            rec(ReplyKind.TIME_EXCEEDED, R1, ta),
            rec(ReplyKind.TIME_EXCEEDED, R2, ta),
            rec(ReplyKind.TIME_EXCEEDED, R1, tb),
            rec(ReplyKind.ECHO_REPLY, R2, tc),
        ]
        return match_replies([A(ta), A(tb), A(tc)], records)

    def test_subnets_and_sources_are_attributed(self):
        report = detect_loops(self.fixture(), subnet_length=48)
        assert report.looping_subnets == {
            parse_prefix("2001:db8:aaaa::/48"),
            parse_prefix("2001:db8:bbbb::/48"),
        }
        assert report.per_router[A(R1)].looping_subnets == 2
        assert report.per_router[A(R1)].amplification == 3
        assert report.per_router[A(R2)].looping_subnets == 1
        assert report.per_router[A(R2)].amplification == 1

    def test_threshold_filters_weak_evidence(self):
        report = detect_loops(self.fixture(), subnet_length=48, min_time_exceeded=2)
        assert report.looping_subnets == {parse_prefix("2001:db8:aaaa::/48")}

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_a_threshold_below_one_is_refused(self, threshold):
        """At 0 every silent target would count as looping."""
        with pytest.raises(ValueError, match="min_time_exceeded"):
            detect_loops(self.fixture(), 48, threshold)

    def test_raising_the_threshold_never_adds_subnets(self):
        result = self.fixture()
        previous = None
        for threshold in range(1, 7):
            subnets = detect_loops(result, 48, threshold).looping_subnets
            if previous is not None:
                assert subnets <= previous
            previous = subnets

    def test_enclosing_prefix_is_canonical(self):
        p = enclosing_prefix(A("2001:db8:aaaa:bbbb::1"), 48)
        assert str(p) == "2001:db8:aaaa::/48"


def brute_force_lpm(networks, address, default):
    best = None
    ip = ipaddress.IPv6Address(address)
    for net, label in networks:
        if ip in net:
            if best is None or net.prefixlen > best[0].prefixlen:
                best = (net, label)
    return best[1] if best else default


class TestPrefixTable:
    def test_longest_match_wins(self):
        table = PrefixTable(
            [
                (parse_prefix("2001:db8::/32"), "wide"),
                (parse_prefix("2001:db8:1::/48"), "narrow"),
            ]
        )
        assert table.lookup(A("2001:db8:1::5")) == "narrow"
        assert table.lookup(A("2001:db8:2::5")) == "wide"
        assert table.lookup(A("2001:db9::1")) == "unknown"
        assert table.covers(A("2001:db8:2::5"))
        assert not table.covers(A("2001:db9::1"))

    def test_csv_loading_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "# prefix,label\n\n2001:db8::/32,backbone\n2001:db8:1::/48, edge \n"
        )
        with open(path) as fh:
            table = PrefixTable(read_records(fh, parse_label_row))
        assert len(table) == 2
        assert table.lookup(A("2001:db8:1::9")) == "edge"

    def test_csv_errors_name_the_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("2001:db8::/32,ok\nnot a prefix,broken\n")
        with open(path) as fh, pytest.raises(ValueError, match="line 2"):
            PrefixTable(read_records(fh, parse_label_row))

    def test_csv_row_without_a_comma_names_the_form(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("2001:db8::/32\n")
        with open(path) as fh, pytest.raises(ValueError, match="^line 1: expected PREFIX,LABEL"):
            PrefixTable(read_records(fh, parse_label_row))

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(16, 64)),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    def test_matches_the_ipaddress_module(self, raw_prefixes, raw_addresses):
        base = A("2001:db8::") >> 64  # high 64 bits shared so prefixes collide
        entries = {}
        for salt, length in raw_prefixes:
            bits = ((base << 64) | (salt << 16)) & ((2**128 - 1) << (128 - length))
            entries[(bits, length)] = f"label-{salt & 0xF}"
        table = PrefixTable(
            [(parse_prefix(f"{ipaddress.IPv6Address(b)}/{l}"), lab) for (b, l), lab in entries.items()]
        )
        networks = [
            (ipaddress.IPv6Network((ipaddress.IPv6Address(b), l)), lab)
            for (b, l), lab in entries.items()
        ]
        for salt in raw_addresses:
            address = (base << 64) | (salt << 12)
            assert table.lookup(address) == brute_force_lpm(networks, address, "unknown")

    @settings(max_examples=80)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 128)),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=4,
        ),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=10),
    )
    def test_tables_built_between_lookups_match_the_ipaddress_module(
        self, batches, raw_addresses
    ):
        """A table of the entries so far, built after each batch, whose
        entries may reuse a prefix (the last label wins) or add a length."""
        base = A("2001:db8::")
        entries: list = []
        networks: dict = {}
        for batch in batches:
            for salt, length in batch:
                net = ipaddress.IPv6Network((base | (salt << 64), length), strict=False)
                label = f"label-{salt & 0xF}"
                entries.append((parse_prefix(str(net)), label))
                networks[net] = label
            table = PrefixTable(entries)
            addresses = [base | (salt << 48) for salt in raw_addresses]
            addresses += [int(net.network_address) for net in networks]
            for address in addresses:
                want = brute_force_lpm(networks.items(), address, "unknown")
                assert table.lookup(address) == want
                assert table.covers(address) == any(
                    ipaddress.IPv6Address(address) in net for net in networks
                )


class TestComparison:
    def test_exclusive_counts_partition_the_union(self):
        report = compare_datasets(
            {"alpha": [1, 2, 3], "beta": [2, 3, 4], "gamma": [4]}
        )
        assert report.union_size == 4
        assert sum(report.exclusive.values()) == report.union_size
        assert report.exclusive[("alpha",)] == 1
        assert report.exclusive[("alpha", "beta")] == 2
        assert report.exclusive[("beta", "gamma")] == 1
        assert report.pairwise[("alpha", "beta")] == 2
        assert report.pairwise[("beta", "gamma")] == 1
        assert report.pairwise[("alpha", "gamma")] == 0

    def test_sizes_are_preserved(self):
        report = compare_datasets({"a": [1, 1, 2], "b": [3]})
        assert report.sizes == {"a": 2, "b": 1}

    def test_label_breakdown_counts_each_set_per_label(self):
        table = PrefixTable([(parse_prefix("2001:db8::/32"), "doc")])
        inside, outside = A("2001:db8::77"), A("2001:db9::77")
        report = compare_datasets({"x": [inside], "y": [inside, outside]}, table)
        assert report.by_label == {
            "doc": {"x": 1, "y": 1},
            "unknown": {"x": 0, "y": 1},
        }

    def test_single_set_is_refused(self):
        with pytest.raises(ValueError, match="two sets"):
            compare_datasets({"only": [1]})

    @settings(max_examples=60)
    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.frozensets(st.integers(0, 50), max_size=25),
            min_size=2,
        )
    )
    def test_identities_hold_for_arbitrary_families(self, family):
        report = compare_datasets(family)
        union = set().union(*family.values())
        assert report.union_size == len(union)
        assert sum(report.exclusive.values()) == len(union)
        for (a, b), count in report.pairwise.items():
            assert count == len(set(family[a]) & set(family[b]))
        for members, count in report.exclusive.items():
            chosen = set.intersection(*(set(family[m]) for m in members))
            others = set().union(
                *(set(family[n]) for n in family if n not in members), set()
            )
            assert count == len(chosen - others)


class TestCsvOutput:
    """Each `analyze --csv` report, from reply files written here."""

    def analyze(self, tmp_path, action, *argv):
        path = tmp_path / f"{action}.csv"
        assert cli.main(["analyze", action, *argv, "--csv", str(path)]) == 0
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def files(self, tmp_path, *scans):
        """A targets file holding T1, and one reply file per scan."""
        (tmp_path / "targets.txt").write_text(f"{T1}\n")
        paths = []
        for index, records in enumerate(scans):
            path = tmp_path / f"pass{index}"
            path.write_text("".join(r.to_json() + "\n" for r in records))
            paths.append(str(path))
        return ["--targets", str(tmp_path / "targets.txt"), "--replies", *paths]

    def test_summary_csv(self, tmp_path):
        argv = self.files(tmp_path, [rec(ReplyKind.ECHO_REPLY, R1, T1)])
        rows = self.analyze(tmp_path, "summarize", *argv)
        assert rows[0][0] == "scan"
        assert rows[1][0] == "pass0"
        assert len(rows) == 2

    def test_visibility_csv(self, tmp_path):
        argv = self.files(
            tmp_path,
            [rec(ReplyKind.ECHO_REPLY, R1, T1), rec(ReplyKind.ECHO_REPLY, R2, T1)],
            [rec(ReplyKind.ECHO_REPLY, R1, T1)],
        )
        rows = self.analyze(tmp_path, "visibility", *argv)
        assert rows[0] == ["scans_present", "routers"]
        assert rows[1:] == [["1", "1"], ["2", "1"]]

    def test_stability_csv(self, tmp_path):
        echo = rec(ReplyKind.ECHO_REPLY, R1, T1)
        argv = self.files(tmp_path, [echo], [echo])
        rows = self.analyze(tmp_path, "stability", *argv)
        assert rows[0] == ["scan_index", "same", "changed", "no_response"]
        assert rows[1] == ["1", "1.0", "0.0", "0.0"]

    def test_loops_csv(self, tmp_path):
        argv = self.files(tmp_path, [rec(ReplyKind.TIME_EXCEEDED, R1, T1)])
        rows = self.analyze(tmp_path, "loops", *argv)
        assert rows[0] == ["router", "looping_subnets", "amplification"]
        assert rows[1] == ["2001:db8:fe::1", "1", "1"]

    def test_comparison_csv(self, tmp_path):
        (tmp_path / "a.txt").write_text("::1\n::2\n")
        (tmp_path / "b.txt").write_text("::2\n")
        sets = [f"--set={name}={tmp_path / name}.txt" for name in "ab"]
        rows = self.analyze(tmp_path, "compare", *sets)
        assert rows[0] == ["member_of", "addresses"]
        assert ["a+b", "1"] in rows
