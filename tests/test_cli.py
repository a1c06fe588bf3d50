"""Command line behavior, exercised through main() with real files."""

import argparse
import csv
import hashlib
import ipaddress
import json
import os
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rfc4443_oracle as oracle
from srascan import addresses, analysis, cli, cli_fallback, live, netsim, probe_engine, target_gen


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def demo(tmp_path):
    assert run("demo", "--into", str(tmp_path)) == 0
    return tmp_path


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def refuse_to_send(transport, packet):
    raise AssertionError("a probe was sent")


# Every generation mode, for tests that must hold in each.
GEN_MODES = {
    "bgp1": ["--mode", "bgp", "--stage", "1"],
    "bgp2": ["--mode", "bgp", "--stage", "2"],
    "bgp3": ["--mode", "bgp", "--stage", "3"],
    "bgpall": ["--mode", "bgp", "--stage", "all"],
    "route6": ["--mode", "route6", "--samples-per-prefix", "7", "--seed", "3"],
    "hitlist": ["--mode", "hitlist"],
}
gen_modes = pytest.mark.parametrize("mode", list(GEN_MODES.values()), ids=list(GEN_MODES))

# The plan each mode builds, of the prefixes and of the hitlist's addresses.
MODE_PLANS = {
    "bgp1": lambda prefixes, hits: target_gen.stage1_plan(prefixes),
    "bgp2": lambda prefixes, hits: target_gen.stage2_plan(prefixes),
    "bgp3": lambda prefixes, hits: target_gen.stage3_plan(prefixes),
    "bgpall": lambda prefixes, hits: target_gen.bgp_all_plan(prefixes),
    "route6": lambda prefixes, hits: target_gen.route6_plan(
        prefixes, target_gen.GenerationConfig(route6_samples_per_prefix=7, rng_seed=3)
    ),
    "hitlist": lambda prefixes, hits: target_gen.hitlist_plan(hits),
}


class TestGenTargets:
    def test_stage2_of_demo_prefixes(self, demo, capsys):
        assert run(
            "gen-targets",
            "--mode", "bgp",
            "--stage", "2",
            "--prefixes", str(demo / "demo_subnets.txt"),
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "2001:db8:100::",
            "2001:db8:200::",
            "2001:db8:300::",
            "2001:db8:400::",
        ]

    def test_ndjson_records_carry_provenance(self, demo, capsys):
        run(
            "gen-targets",
            "--mode", "bgp",
            "--stage", "2",
            "--ndjson",
            "--prefixes", str(demo / "demo_subnets.txt"),
        )
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first == {
            "address": "2001:db8:100::",
            "origin": "2001:db8:100::/48",
            "stage": "bgp48",
        }

    def test_count_only_all_stages_prints_the_breakdown(self, demo, capsys):
        run(
            "gen-targets",
            "--mode", "bgp",
            "--count-only",
            "--prefixes", str(demo / "demo_subnets.txt"),
        )
        counts = json.loads(capsys.readouterr().out)
        assert counts["stage2"] == 4
        assert counts["stage3"] == 4 * 65536
        assert counts["deduplicated_total"] <= counts["stage1"] + counts["stage2"] + counts["stage3"]

    def test_count_only_single_stage_prints_a_number(self, demo, capsys):
        run(
            "gen-targets",
            "--mode", "bgp",
            "--stage", "3",
            "--count-only",
            "--prefixes", str(demo / "demo_subnets.txt"),
        )
        assert capsys.readouterr().out.strip() == str(4 * 65536)

    @pytest.mark.parametrize("max_targets", [None, 0, 3, 65537, 10**9])
    @gen_modes
    def test_count_only_equals_lines_written(self, tmp_path, capsys, mode, max_targets):
        # nested, overlapping and repeated announcements, one exact /48
        prefixes = write(
            tmp_path, "p.txt",
            "2001:db8::/47\n2001:db8:1::/48\n2001:db8:1:200::/56\n"
            "2001:db8:1::/48\n2001:db8:0:10::/62\n2001:db8:1:2:8000::/66\n",
        )
        hitlist = write(
            tmp_path, "h.txt", "2001:db8:1:2::1\n2001:db8:1:2::2\n2001:db8:1:3::1\n",
        )
        argv = ["gen-targets", *mode, "--prefixes", prefixes, "--hitlist", hitlist]
        if max_targets is not None:
            argv += ["--max-targets", str(max_targets)]
        out = tmp_path / "targets.txt"
        assert run(*argv, "-o", str(out)) == 0
        assert run(*argv, "--count-only") == 0
        counted = json.loads(capsys.readouterr().out)
        if isinstance(counted, dict):
            counted = counted["deduplicated_total"]
        assert counted == len(out.read_text().splitlines())

    @pytest.mark.parametrize("max_targets", [None, 3, 65537])
    @pytest.mark.parametrize("mode", GEN_MODES)
    def test_ndjson_output_is_json_dumps_per_target(self, demo, mode, max_targets):
        prefixes = demo / "demo_subnets.txt"
        hitlist = write(demo, "h.txt", "2001:db8:100::1\n2001:db8:200:1::1\n")
        argv = ["gen-targets", *GEN_MODES[mode], "--prefixes", str(prefixes),
                "--hitlist", hitlist]
        if max_targets is not None:
            argv += ["--max-targets", str(max_targets)]
        assert run(*argv, "-o", str(demo / "targets.txt")) == 0
        assert run(*argv, "--ndjson", "-o", str(demo / "targets.ndjson")) == 0
        # Each target's provenance is the origin and stage of its plan entry.
        with open(prefixes) as p, open(hitlist) as h:
            plan = MODE_PLANS[mode](
                list(addresses.read_prefixes(p)),
                list(addresses.read_records(h, addresses.parse_address)),
            )
            provenance = [(str(origin), stage.value) for origin, stage, indices in plan
                          for _ in indices]
        written = (demo / "targets.txt").read_text().splitlines()
        assert 0 < len(written) == min(len(provenance), max_targets or len(provenance))
        expected = "".join(
            json.dumps({"address": address, "origin": origin, "stage": stage}) + "\n"
            for address, (origin, stage) in zip(written, provenance)
        )
        assert (demo / "targets.ndjson").read_text() == expected

    @pytest.mark.parametrize("max_targets", [[], ["--max-targets", "3"]])
    def test_count_only_all_stages_plans_each_stage_once(self, demo, monkeypatch, max_targets):
        calls = Counter()
        for name in ("stage1_plan", "stage2_plan", "stage3_plan"):
            def counted(prefixes, name=name, plan=getattr(target_gen, name)):
                calls[name] += 1
                return plan(prefixes)
            monkeypatch.setattr(target_gen, name, counted)
        assert run(
            "gen-targets", "--mode", "bgp", "--stage", "all", "--count-only",
            "--prefixes", str(demo / "demo_subnets.txt"), *max_targets,
        ) == 0
        assert calls == {"stage1_plan": 1, "stage2_plan": 1, "stage3_plan": 1}

    def test_negative_max_targets_is_refused(self, demo, capsys):
        assert run(
            "gen-targets", "--mode", "bgp", "--prefixes", str(demo / "demo_subnets.txt"),
            "--max-targets", "-1",
        ) == 2
        assert "--max-targets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--samples-per-prefix", "0", "route6_samples_per_prefix"), ("--seed", "-1", "rng_seed")],
    )
    def test_bad_generation_config_is_refused(self, demo, capsys, flag, value, message):
        assert run(
            "gen-targets", "--mode", "route6", "--prefixes", str(demo / "demo_subnets.txt"),
            flag, value,
        ) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_route6_over_a_0_prefix_counts_what_it_lists(self, tmp_path, capsys):
        prefixes = write(tmp_path, "p.txt", "::/0\n")
        argv = ["gen-targets", "--mode", "route6", "--prefixes", prefixes,
                "--samples-per-prefix", "3"]
        assert run(*argv) == 0
        listed = capsys.readouterr().out.splitlines()
        assert run(*argv, "--count-only") == 0
        assert capsys.readouterr().out == f"{len(set(listed))}\n" == "3\n"

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["list", "count"])
    def test_a_sample_count_past_sys_maxsize_is_refused(self, tmp_path, capsys, count_only):
        prefixes = write(tmp_path, "p.txt", "::/0\n")
        assert run(
            "gen-targets", "--mode", "route6", "--prefixes", prefixes,
            "--samples-per-prefix", str(sys.maxsize + 1), *count_only,
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: route6_samples_per_prefix must be at most {sys.maxsize}\n"
        )

    def test_route6_sampling_respects_seed_and_count(self, tmp_path, capsys):
        prefixes = write(tmp_path, "p.txt", "2001:db8::/60\n")
        run(
            "gen-targets", "--mode", "route6", "--prefixes", prefixes,
            "--samples-per-prefix", "5", "--seed", "1",
        )
        first = capsys.readouterr().out
        run(
            "gen-targets", "--mode", "route6", "--prefixes", prefixes,
            "--samples-per-prefix", "5", "--seed", "1",
        )
        assert capsys.readouterr().out == first
        assert len(first.splitlines()) == 5
        run(
            "gen-targets", "--mode", "route6", "--prefixes", prefixes,
            "--samples-per-prefix", "5", "--seed", "2",
        )
        assert capsys.readouterr().out != first

    def test_hitlist_mode_masks_and_dedups(self, tmp_path, capsys):
        hitlist = write(tmp_path, "h.txt", "2001:db8:1:2:3::1\n2001:db8:1:2:4::1\n")
        run("gen-targets", "--mode", "hitlist", "--hitlist", hitlist)
        assert capsys.readouterr().out.splitlines() == ["2001:db8:1:2::"]

    def test_max_targets_truncates(self, demo, capsys):
        run(
            "gen-targets", "--mode", "bgp", "--stage", "2",
            "--prefixes", str(demo / "demo_subnets.txt"),
            "--max-targets", "2",
        )
        assert len(capsys.readouterr().out.splitlines()) == 2

    @pytest.fixture(scope="class")
    def two_48s(self, tmp_path_factory):
        """A stage-3 input of two /48s, and its uncut text and NDJSON output."""
        work = tmp_path_factory.mktemp("two48s")
        argv = [
            "gen-targets", "--mode", "bgp", "--stage", "3",
            "--prefixes", write(work, "p.txt", "2001:db8:5::/48\n2001:db8:ffff::/48\n"),
        ]
        for name, extra in (("text", []), ("ndjson", ["--ndjson"])):
            assert run(*argv, *extra, "-o", str(work / name)) == 0
        return argv, work

    @pytest.mark.parametrize("max_targets", [0, 1, 4096, 65536, 65537, 10**9])
    def test_max_targets_cuts_the_plan(self, two_48s, tmp_path, capsys, max_targets):
        argv, work = two_48s
        argv = [*argv, "--max-targets", str(max_targets)]
        for name, extra in (("text", []), ("ndjson", ["--ndjson"])):
            whole = (work / name).read_text().splitlines(keepends=True)
            assert len(whole) == 2 * 65536
            assert run(*argv, *extra, "-o", str(tmp_path / name)) == 0
            assert (tmp_path / name).read_text() == "".join(whole[:max_targets])
        assert run(*argv, "--count-only") == 0
        assert json.loads(capsys.readouterr().out) == min(max_targets, 2 * 65536)

    REPLY = (
        '{"ts":0.0,"kind":"echo_reply","type":129,"code":0,"src":"2001:db8:100::",'
        '"embedded_target":"2001:db8:100::","hop_limit":64}'
    )

    # Every line-oriented input: line 2 is a comment or blank, line 3 is bad.
    @pytest.mark.parametrize(
        "argv,text",
        [
            (["gen-targets", "--mode", "bgp", "--prefixes", "{bad}"],
             "2001:db8::/32\n\nnot-a-prefix/48\n"),
            (["gen-targets", "--mode", "hitlist", "--hitlist", "{bad}"],
             "2001:db8::1\n# host\n2001:db8::zz\n"),
            (["scan", "--targets", "{bad}", "--sim-topology", "{topology}"],
             "2001:db8:100::\n\n2001:db8:100::/48\n"),
            (["scan", "--targets", "{bad}", "--sim-topology", "{topology}"],
             '{"address": "2001:db8:100::"}\n# record\n{"origin": "2001:db8::/32"}\n'),
            (["scan", "--targets", "{bad}", "--sim-topology", "{topology}"],
             '{"address": "2001:db8:100::"}\n\n{"address": 5}\n'),
            (["analyze", "summarize", "--replies", "{bad}", "--targets", "{targets}"],
             REPLY + "\n# a comment, skipped like in every other input\n{}\n"),
            (["analyze", "summarize", "--replies", "{bad}", "--targets", "{targets}"],
             REPLY + "\n\n[]\n"),
            (["analyze", "compare", "--set", "a={targets}", "--set", "b={targets}",
              "--labels", "{bad}"],
             "2001:db8::/32,doc\n\n2001:db8::/300,bad length\n"),
            (["analyze", "compare", "--set", "a={targets}", "--set", "b={targets}",
              "--labels", "{bad}"],
             "2001:db8::/32,doc\n\n2001:db8::/32\n"),
        ],
        ids=["prefixes", "hitlist", "targets", "targets-ndjson", "targets-ndjson-number",
             "replies", "replies-not-an-object", "labels", "labels-no-comma"],
    )
    def test_parse_errors_name_the_line(self, demo, capsys, argv, text):
        paths = {
            "bad": write(demo, "bad.txt", text),
            "targets": write(demo, "t.txt", "2001:db8:100::\n"),
            "topology": str(demo / "demo_topology.json"),
        }
        assert run(*(arg.format(**paths) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.txt: line 3:" in err
        assert "Traceback" not in err

    def test_bad_target_line_past_the_first_block_names_its_line(self, demo, capsys):
        """A probe list is parsed in blocks; the line number still counts from 1."""
        lines = [addresses.format_address(0x20010DB8 << 96 | i << 64) for i in range(5000)]
        lines[4500] = "2001:db8::/64"
        targets = write(demo, "t.txt", "\n".join(lines) + "\n")
        replies = write(demo, "r.ndjson", "")
        assert run("analyze", "summarize", "--replies", replies, "--targets", targets) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {targets}: line 4501: expected a bare address, got '2001:db8::/64'\n"
        )
        assert captured.out == ""

    @staticmethod
    def reply_lines(n):
        """n reply lines as `scan` writes them: echoes from the probed /48s'
        leaves, errors from fe80::1, for ten targets in turn."""
        targets = [0x20010DB8_0100 << 80 | i << 64 for i in range(10)]
        kinds = (probe_engine.ReplyKind.ECHO_REPLY, probe_engine.ReplyKind.DEST_UNREACHABLE)
        lines = []
        for i in range(n):
            target = targets[i % 10]
            kind = kinds[i % 3 == 0]
            source = addresses.parse_address("fe80::1") if i % 3 == 0 else target | 1
            record = probe_engine.ReplyRecord(
                kind, 129 if i % 3 else 1, 0, source, target, 64, i / 1000
            )
            lines.append(record.to_json())
        return lines, "".join(addresses.format_address(t) + "\n" for t in targets)

    def test_bad_reply_line_past_the_first_block_names_its_line(self, demo, capsys):
        """A reply file is decoded in blocks; the line number still counts from 1."""
        lines, targets = self.reply_lines(5000)
        lines[4500] = '{"ts":0.0}'
        replies = write(demo, "r.ndjson", "\n".join(lines) + "\n")
        targets = write(demo, "t.txt", targets)
        assert run("analyze", "summarize", "--replies", replies, "--targets", targets) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {replies}: line 4501: missing key 'kind'\n"
        assert captured.out == ""

    def test_reply_file_with_skipped_and_loose_lines_reads_as_the_clean_file(
        self, demo, capsys
    ):
        """Blank, # and extra-key lines and a scoped source, in the first block
        and past it, give the clean file's summary."""
        lines, targets = self.reply_lines(5000)
        targets = write(demo, "t.txt", targets)
        (demo / "clean").mkdir()
        (demo / "loose").mkdir()
        clean = write(demo / "clean", "r.ndjson", "\n".join(lines) + "\n")
        for i in (30, 4200):
            assert '"src":"fe80::1"' in lines[i]
            lines[i] = lines[i].replace('"src":"fe80::1"', '"src":"fe80::1%eth0"')
            lines[i + 1] = lines[i + 1][:-1] + ',"note":{"seen":[1,2]}}'
        for i in (4600, 4095, 17, 0):
            lines[i:i] = ["", "# replies of the demo scan", "   "]
        loose = write(demo / "loose", "r.ndjson", "\n".join(lines) + "\n")
        summaries = []
        for replies in (clean, loose):
            assert run("analyze", "summarize", "--replies", replies, "--targets", targets) == 0
            summaries.append(capsys.readouterr().out)
        assert summaries[0] == summaries[1]
        summary = json.loads(summaries[0])["r.ndjson"]
        assert summary["replies_total"] == 5000 and summary["error_replies"] == 1667

    def test_bad_reply_line_is_named_before_a_later_undecodable_byte(self, demo, capsys):
        """Line 2 and the byte that is not UTF-8 share a block, but the file is
        decoded in chunks of 8 KiB, so line 2 is read before the decode error."""
        lines, targets = self.reply_lines(101)
        targets = write(demo, "t.txt", targets)
        path = demo / "r.ndjson"
        body = "\n".join(lines[1:]).encode() + b"\n\xff\n"
        assert len(body) > 8192
        path.write_bytes(lines[0].encode() + b"\nzz\n" + body)
        assert run("analyze", "summarize", "--replies", str(path), "--targets", targets) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: line 2: Expecting value")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("[1, 2]", "expected a JSON object"),
            ("null", "expected a JSON object"),
            ('{"ts":0.0,"type":129}', "missing key 'kind'"),
            ('{"ts":0.0,"kind":"echo_reply","type":129,"code":0,"src":"::1",'
             '"hop_limit":64}', "missing key 'embedded_target'"),
        ],
        ids=["list", "null", "no-kind", "no-embedded_target"],
    )
    def test_malformed_reply_line_says_what_is_wrong(self, demo, capsys, line, message):
        lines, targets = self.reply_lines(2)
        replies = write(demo, "r.ndjson", f"{lines[0]}\n\n{line}\n{lines[1]}\n")
        targets = write(demo, "t.txt", targets)
        assert run("analyze", "summarize", "--replies", replies, "--targets", targets) == 2
        assert capsys.readouterr().err == f"error: {replies}: line 3: {message}\n"

    def test_mode_needs_its_input_file(self, capsys):
        assert run("gen-targets", "--mode", "hitlist") == 2
        assert "--hitlist" in capsys.readouterr().err


class TestScan:
    def scan_args(self, demo, out, extra=()):
        targets = str(demo / "targets.txt")
        run(
            "gen-targets", "--mode", "bgp", "--stage", "2",
            "--prefixes", str(demo / "demo_subnets.txt"),
            "-o", targets,
        )
        return [
            "scan",
            "--targets", targets,
            "--sim-topology", str(demo / "demo_topology.json"),
            "--rate", "1000",
            "-o", str(demo / out),
            *extra,
        ]

    def test_sim_scan_produces_classified_replies(self, demo):
        assert run(*self.scan_args(demo, "replies.ndjson")) == 0
        lines = (demo / "replies.ndjson").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert len(records) == 4
        kinds = {r["embedded_target"]: r["kind"] for r in records}
        assert kinds["2001:db8:100::"] == "echo_reply"
        assert kinds["2001:db8:400::"] == "dest_unreachable"

    def test_two_runs_are_byte_identical(self, demo):
        run(*self.scan_args(demo, "a.ndjson"))
        run(*self.scan_args(demo, "b.ndjson"))
        assert (demo / "a.ndjson").read_bytes() == (demo / "b.ndjson").read_bytes()

    def test_passes_write_one_file_each(self, demo):
        assert run(*self.scan_args(demo, "multi.ndjson", ["--passes", "2"])) == 0
        pass0 = (demo / "multi.pass0.ndjson").read_text().splitlines()
        pass1 = (demo / "multi.pass1.ndjson").read_text().splitlines()
        assert len(pass0) == 4
        assert len(pass1) >= 3  # the border bucket may be low, echoes always come

    def test_sim_scan_runs_on_the_simulators_clock(self, demo, monkeypatch):
        """A simulated scan never sleeps, even through a cooldown, and idle
        time reaches no router: a 5 s cooldown writes the same replies."""

        def no_sleep(seconds):
            raise AssertionError(f"slept for {seconds} s")

        receive, idle = netsim.SimTransport.receive, []

        def receive_or_give_up(transport, timeout):
            item = receive(transport, timeout)
            idle.append(item is None)
            assert sum(idle) < 100, "the clock does not reach its deadline"
            return item

        monkeypatch.setattr(time, "sleep", no_sleep)
        monkeypatch.setattr(netsim.SimTransport, "receive", receive_or_give_up)
        start = time.monotonic()
        assert run(*self.scan_args(demo, "tour.ndjson", ["--passes", "2"])) == 0
        assert run(*self.scan_args(
            demo, "cool.ndjson", ["--passes", "2", "--cooldown", "5", "--rate", "3"]
        )) == 0
        assert run(*self.scan_args(demo, "slow.ndjson", ["--passes", "2", "--rate", "3"])) == 0
        assert time.monotonic() - start < 5  # the cooldowns alone would take 10 s
        for i in range(2):
            tour = (demo / f"tour.pass{i}.ndjson").read_text()
            assert len(tour.splitlines()) >= 3
            assert (demo / f"cool.pass{i}.ndjson").read_text() == (
                demo / f"slow.pass{i}.ndjson"
            ).read_text()

    def test_exclusions_apply_before_sending(self, demo, capsys):
        exclude = write(demo, "exclude.txt", "::/0\n")
        assert run(*self.scan_args(demo, "none.ndjson", ["--exclude", exclude])) == 0
        err = capsys.readouterr().err
        assert "excluded 4 of 4" in err
        assert (demo / "none.ndjson").read_text() == ""

    def test_nested_and_overlapping_exclusions(self, demo, capsys):
        targets = [
            "2001:db8:100::", "2001:db8:100:1::", "2001:db8:1ff:ffff::",
            "2001:db8:200::", "2001:db8:280::", "2001:db8:2ff:ffff::",
            "2001:db8:300::", "2001:db8:300:8000::", "2001:db8:400::",
        ]
        excluded = [
            "2001:db8:100::/40",    # holds the next two
            "2001:db8:100::/48",
            "2001:db8:180::/41",
            "2001:db8:280::/41",    # overlaps the next one
            "2001:db8:280::/44",
            "2001:db8:300:8000::/49",
            "2001:db8:300:8000::/64",
        ]
        nets = [ipaddress.IPv6Network(p) for p in excluded]
        kept = [t for t in targets if not any(ipaddress.IPv6Address(t) in n for n in nets)]
        target_file = write(demo, "t.txt", "".join(t + "\n" for t in targets))
        exclude = write(demo, "exclude.txt", "".join(p + "\n" for p in excluded))
        assert run(
            "scan", "--targets", target_file, "--exclude", exclude,
            "--sim-topology", str(demo / "demo_topology.json"), "--rate", "1000",
            "-o", str(demo / "r.ndjson"),
        ) == 0
        assert f"excluded {len(targets) - len(kept)} of {len(targets)}" in capsys.readouterr().err
        replies = [json.loads(l) for l in (demo / "r.ndjson").read_text().splitlines()]
        probed = {r["embedded_target"] for r in replies} - {None}
        assert probed <= set(kept)
        assert "2001:db8:400::" in probed

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--interface", "eth0", "--source", "2001:db8::1"], "--i-understand-live"),
            (["--i-understand-live", "--source", "2001:db8::1"], "needs --interface"),
            (["--i-understand-live", "--interface", "eth0"], "needs --source ADDRESS"),
        ],
        ids=["no-consent", "no-interface", "no-source"],
    )
    def test_live_mode_requires_explicit_consent(
        self, demo, capsys, monkeypatch, flags, message
    ):
        opened = []
        monkeypatch.setattr(live, "LiveTransport", lambda *a: opened.append(a))
        argv = self.scan_args(demo, "x.ndjson")
        idx = argv.index("--sim-topology")
        del argv[idx : idx + 2]
        assert run(*argv, "--transport", "live", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert opened == []

    def test_manifest_records_digests_and_masks_the_secret(self, demo, monkeypatch):
        monkeypatch.setenv(cli.SECRET_ENV_VAR, "0x42")
        manifest_path = demo / "run.json"
        assert run(
            *self.scan_args(demo, "m.ndjson", ["--manifest", str(manifest_path)])
        ) == 0
        manifest = json.loads(manifest_path.read_text())
        want = hashlib.sha256((0x42).to_bytes(8, "big")).hexdigest()
        assert manifest["config"]["secret_sha256"] == want
        assert "0x42" not in manifest_path.read_text()
        assert {
            str(manifest_path.parent / e["path"]) for e in manifest["outputs"]
        } == {str(demo / "m.ndjson")}

    def test_manifest_verify_round_trip_and_tamper(self, demo, capsys):
        manifest_path = demo / "run.json"
        run(*self.scan_args(demo, "v.ndjson", ["--manifest", str(manifest_path)]))
        assert run("manifest-verify", str(manifest_path)) == 0
        assert "verified" in capsys.readouterr().out
        with open(demo / "v.ndjson", "a") as fh:
            fh.write("tampered\n")
        assert run("manifest-verify", str(manifest_path)) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_manifest_in_a_subdirectory_verifies(self, demo, capsys, monkeypatch):
        monkeypatch.chdir(demo)
        argv = self.scan_args(demo, "unused.ndjson")
        argv[argv.index("-o") + 1] = "out/replies.ndjson"
        (demo / "out").mkdir()
        assert run(*argv, "--passes", "2", "--manifest", "out/run.json") == 0
        capsys.readouterr()
        assert run("manifest-verify", "out/run.json") == 0
        assert capsys.readouterr().out.strip() == "ok: 4 files verified"
        monkeypatch.chdir(demo / "out")
        assert run("manifest-verify", "run.json") == 0

    def test_self_route_in_topology_is_an_error(self, demo, capsys):
        topology = json.loads((demo / "demo_topology.json").read_text())
        router = topology["routers"][0]
        router["routes"].append({"prefix": "2001:db8:ffff::/48", "next_hop": router["id"]})
        (demo / "demo_topology.json").write_text(json.dumps(topology))
        assert run(*self.scan_args(demo, "x.ndjson")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "points at itself" in err

    @pytest.mark.parametrize(
        "where,key,value",
        [
            ("router", "error_rate", "10"),
            ("router", "error_burst", True),
            ("router", "replication_factor", 2.0),
            ("router", "sra_enabled", "no"),
            ("router", "id", 5),
            ("router", "sra_source", None),
            ("route", "next_hop", ["core"]),
            ("topology", "entry_router", 0),
            ("topology", "max_events", "5"),
        ],
        ids=["error_rate-text", "error_burst-bool", "replication_factor-float",
             "sra_enabled-text", "id-int", "sra_source-null", "next_hop-list",
             "entry_router-int", "max_events-text"],
    )
    def test_wrongly_typed_topology_field_is_refused_before_sending(
        self, demo, capsys, monkeypatch, where, key, value
    ):
        topology = json.loads((demo / "demo_topology.json").read_text())
        border = topology["routers"][0]
        {"router": border, "route": border["routes"][0], "topology": topology}[where][key] = value
        (demo / "demo_topology.json").write_text(json.dumps(topology))
        monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
        assert run(*self.scan_args(demo, "x.ndjson")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {demo / 'demo_topology.json'}: {key}: expected ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "where,key",
        [
            ("topology", "routers"),
            ("topology", "entry_router"),
            ("router", "id"),
            ("router", "interfaces"),
            ("interface", "addr"),
            ("interface", "subnet"),
            ("route", "prefix"),
            ("route", "next_hop"),
        ],
    )
    def test_a_missing_topology_key_is_named_on_one_error_line(
        self, demo, capsys, monkeypatch, where, key
    ):
        path = demo / "demo_topology.json"
        topology = json.loads(path.read_text())
        border = topology["routers"][0]
        del {
            "topology": topology,
            "router": border,
            "interface": border["interfaces"][0],
            "route": border["routes"][0],
        }[where][key]
        path.write_text(json.dumps(topology))
        argv = self.scan_args(demo, "x.ndjson")
        capsys.readouterr()
        monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: missing key {key!r}\n"
        assert not (demo / "x.ndjson").exists()

    @pytest.mark.parametrize(
        "where,key,value,message",
        [
            ("topology", "max_events", 0, "max_events must be >= 1"),
            ("topology", "max_events", -5, "max_events must be >= 1"),
            ("router", "error_rate", -1, "error_rate must be a finite number >= 0"),
            ("router", "error_rate", float("nan"), "error_rate must be a finite number >= 0"),
            ("router", "error_burst", -0.5, "error_burst must be a finite number >= 0"),
            ("router", "error_burst", float("nan"), "error_burst must be a finite number >= 0"),
        ],
        ids=["max_events-0", "max_events-negative", "error_rate-negative", "error_rate-nan",
             "error_burst-negative", "error_burst-nan"],
    )
    def test_out_of_range_topology_value_is_refused_before_the_transport_opens(
        self, demo, capsys, monkeypatch, where, key, value, message
    ):
        topology = json.loads((demo / "demo_topology.json").read_text())
        {"router": topology["routers"][0], "topology": topology}[where][key] = value
        (demo / "demo_topology.json").write_text(json.dumps(topology))  # NaN is written as NaN

        def refuse_to_open(*args, **kwargs):
            raise AssertionError("the transport was opened")

        monkeypatch.setattr(netsim, "SimTransport", refuse_to_open)
        assert run(*self.scan_args(demo, "x.ndjson")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {demo / 'demo_topology.json'}: ") and message in err
        assert "Traceback" not in err
        assert not (demo / "x.ndjson").exists()

    @pytest.mark.parametrize("key", ["error_rate", "error_burst"])
    def test_a_bucket_too_large_for_a_float_is_refused_with_one_error_line(
        self, demo, capsys, monkeypatch, key
    ):
        topology = json.loads((demo / "demo_topology.json").read_text())
        router = topology["routers"][0]
        router[key] = 10**400
        (demo / "demo_topology.json").write_text(json.dumps(topology))
        monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
        assert run(*self.scan_args(demo, "x.ndjson")) == 2
        path = demo / "demo_topology.json"
        assert capsys.readouterr().err == (
            f"error: {path}: router {router['id']!r}: {key} must be a finite number >= 0\n"
        )

    @pytest.mark.parametrize("where", ["subnet", "route", "aliased"])
    def test_non_string_prefix_in_topology_is_refused_before_sending(
        self, demo, capsys, monkeypatch, where
    ):
        topology = json.loads((demo / "demo_topology.json").read_text())
        border = topology["routers"][0]
        if where == "subnet":
            border["interfaces"][0]["subnet"] = 64
        elif where == "route":
            border["routes"][0]["prefix"] = 64
        else:
            topology["aliased_prefixes"] = [64]
        (demo / "demo_topology.json").write_text(json.dumps(topology))
        monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
        assert run(*self.scan_args(demo, "x.ndjson")) == 2
        err = capsys.readouterr().err
        path = demo / "demo_topology.json"
        assert err == f"error: {path}: expected a prefix string, got 64\n"

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--cooldown", "inf"], "cooldown must be >= 0 and finite"),
            (["--cooldown", "nan"], "cooldown must be >= 0 and finite"),
            (["--passes", "65537"], "--passes must be in 1..65536"),
            (["--passes", "0"], "--passes must be in 1..65536"),
        ],
        ids=["cooldown-inf", "cooldown-nan", "passes-65537", "passes-0"],
    )
    def test_out_of_range_scan_flag_is_refused_before_sending(
        self, demo, capsys, monkeypatch, extra, message
    ):
        monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
        assert run(*self.scan_args(demo, "x.ndjson", extra)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (demo / "x.ndjson").exists()

    def test_bad_secret_is_refused(self, demo, capsys):
        assert run(*self.scan_args(demo, "x.ndjson", ["--secret", "banana"])) == 2
        assert "secret" in capsys.readouterr().err

    def test_each_pass_file_holds_exactly_its_own_replies(self, tmp_path):
        # Every probe into the loop's unused space draws 32 replies, so a
        # pass that stopped with replies queued would leave them to the next.
        topology = tmp_path / "loop.json"
        netsim.save_topology(netsim.build_loop_topology(replication_factor=2), topology)
        targets = [int(ipaddress.IPv6Address("2001:db8:2::")) + (i << 64) for i in range(200)]
        target_file = write(
            tmp_path, "t.txt", "".join(f"{ipaddress.IPv6Address(t)}\n" for t in targets)
        )
        assert run(
            "scan", "--targets", target_file, "--transport", "sim",
            "--sim-topology", str(topology), "--passes", "2", "--hop-limit", "12",
            "--rate", "1e7", "--secret", "7", "-o", str(tmp_path / "r.ndjson"),
        ) == 0
        sim = netsim.Simulation(netsim.load_topology(topology))
        now = 0.0
        for scan_pass in range(2):
            cfg = probe_engine.ProbeConfig(
                send_rate=1e7, hop_limit=12, secret=7, scan_pass=scan_pass
            )
            expected = Counter()
            for target in targets:
                delivery = sim.inject(probe_engine.build_echo_request(target, cfg), now)
                now += 1 / 1e7
                for em in delivery.emissions:
                    rec = probe_engine.classify_icmp(em.packet, 7, timestamp=em.time)
                    expected[rec.to_json()] += 1
            lines = (tmp_path / f"r.pass{scan_pass}.ndjson").read_text().splitlines()
            assert sum(expected.values()) == 200 * 32
            assert Counter(lines) == expected

    def test_transport_failure_is_an_error_and_closes_the_transport(
        self, demo, capsys, monkeypatch
    ):
        class FailingLiveTransport:
            """Answers the first probe, then fails to send the second."""

            instances = []

            def __init__(self, interface, source, hop_limit):
                self.sent = 0
                self.closed = False
                self.rx = deque()
                self.instances.append(self)

            def send(self, packet):
                if self.sent == 1:
                    raise OSError("network is down")
                self.sent += 1
                self.rx.append((oracle.build_echo_reply(packet, packet[24:40]), 1.0))

            def receive(self, timeout):
                return self.rx.popleft() if self.rx else None

            def close(self):
                self.closed = True

        monkeypatch.setattr(live, "LiveTransport", FailingLiveTransport)
        argv = self.scan_args(demo, "live.ndjson")
        i = argv.index("--sim-topology")
        argv[i : i + 2] = ["--transport", "live", "--interface", "eth0",
                           "--source", "2001:db8:ffff::1", "--i-understand-live"]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "error: transport failed mid-scan: network is down" in err
        assert "Traceback" not in err
        (transport,) = FailingLiveTransport.instances
        assert transport.closed
        (line,) = (demo / "live.ndjson").read_text().splitlines()
        assert json.loads(line)["embedded_target"] == "2001:db8:100::"

    def test_missing_topology_is_an_error(self, demo, capsys):
        argv = self.scan_args(demo, "x.ndjson")
        idx = argv.index("--sim-topology")
        del argv[idx : idx + 2]
        assert run(*argv) == 2
        assert "--sim-topology" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [["-o", "-"], []], ids=["stdout", "no-output"])
    def test_manifest_needs_an_output_file(self, demo, capsys, monkeypatch, output):
        argv = self.scan_args(demo, "unused.ndjson")
        idx = argv.index("-o")
        del argv[idx : idx + 2]
        sent = []
        monkeypatch.setattr(netsim.SimTransport, "send", lambda _, packet: sent.append(packet))
        manifest = demo / "run.json"
        assert run(*argv, *output, "--manifest", str(manifest)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--manifest needs -o" in captured.err
        assert captured.out == ""
        assert sent == []
        assert not manifest.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--passes", "2"], "--passes needs -o"),
            (["--manifest", "run.json"], "--manifest needs -o"),
            (["--transport", "sim"], "needs --sim-topology"),
        ],
        ids=["passes", "manifest", "sim-topology"],
    )
    def test_flags_are_checked_before_any_input_is_read(self, tmp_path, capsys, flags, message):
        missing = str(tmp_path / "no-such-targets.txt")
        assert run("scan", "--targets", missing, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "no-such-targets" not in err


class TestConfig:
    def test_config_preloads_defaults_and_flags_win(self, tmp_path, capsys):
        prefixes = write(tmp_path, "p.txt", "2001:db8::/60\n")
        config = write(
            tmp_path, "cfg.json",
            json.dumps({"version": 1, "gen-targets": {"samples_per_prefix": 3}}),
        )
        run("--config", config, "gen-targets", "--mode", "route6", "--prefixes", prefixes)
        assert len(capsys.readouterr().out.splitlines()) == 3
        run(
            "--config", config, "gen-targets", "--mode", "route6",
            "--prefixes", prefixes, "--samples-per-prefix", "2",
        )
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_config_values_convert_like_their_flags(self, tmp_path, capsys):
        prefixes = write(tmp_path, "p.txt", "2001:db8::/60\n")
        config = write(
            tmp_path, "cfg.json",
            json.dumps({"version": 1, "gen-targets": {"max_targets": "2", "ndjson": True}}),
        )
        argv = ["gen-targets", "--mode", "route6", "--prefixes", prefixes]
        assert run("--config", config, *argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["origin"] == "2001:db8::/60" for line in lines)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("scan", "passes", 2.5),
            ("scan", "rate", "fast"),
            ("scan", "hop_limit", True),
            ("scan", "source", None),
            ("gen-targets", "ndjson", "no"),
            ("gen-targets", "seed", [7]),
        ],
    )
    def test_config_values_are_checked_like_their_flags(
        self, demo, capsys, section, key, value
    ):
        config = write(demo, "cfg.json", json.dumps({"version": 1, section: {key: value}}))
        targets = write(demo, "t.txt", "2001:db8:100::\n")
        argv = {
            "scan": ["scan", "--targets", targets,
                     "--sim-topology", str(demo / "demo_topology.json")],
            "gen-targets": ["gen-targets", "--mode", "bgp",
                            "--prefixes", str(demo / "demo_subnets.txt")],
        }[section]
        assert run("--config", config, *argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {config}: {section}.{key}: ")
        assert captured.out == ""

    def test_unsupported_version_is_refused(self, tmp_path, capsys):
        config = write(tmp_path, "cfg.json", json.dumps({"version": 99}))
        assert run("--config", config, "demo") == 2
        assert "version" in capsys.readouterr().err

    def test_unknown_keys_are_refused(self, tmp_path, capsys):
        config = write(
            tmp_path, "cfg.json",
            json.dumps({"version": 1, "scan": {"warp_speed": True}}),
        )
        assert run("--config", config, "demo") == 2
        assert "warp_speed" in capsys.readouterr().err


@pytest.mark.parametrize("version,refused", [(1, False), (True, True), (1.0, True)],
                         ids=["1", "true", "1.0"])
@pytest.mark.parametrize("loader", ["topology", "config", "manifest"])
def test_a_version_key_is_the_integer_1(demo, capsys, loader, version, refused):
    """JSON's true and 1.0 equal 1 in Python; each loader refuses them."""
    topology = json.loads((demo / "demo_topology.json").read_text())
    targets = write(demo, "t.txt", "2001:db8:100::\n")
    # A manifest must list a file: the same one serves as input and output.
    listed = [{"path": "t.txt", "sha256": hashlib.sha256(b"2001:db8:100::\n").hexdigest()}]
    texts = {
        "topology": {**topology, "version": version},
        "config": {"version": version},
        "manifest": {"version": version, "inputs": listed, "outputs": listed},
    }
    path = write(demo, "v.json", json.dumps(texts[loader]))
    argv = {
        "topology": ["scan", "--targets", targets, "--sim-topology", path],
        "config": ["--config", path, "demo", "--into", str(demo / "copy")],
        "manifest": ["manifest-verify", path],
    }[loader]
    rc = run(*argv)
    err = capsys.readouterr().err
    if not refused:
        assert rc == 0, err
    else:
        name = "topology format" if loader == "topology" else loader
        assert (rc, err) == (2, f"error: {path}: unsupported {name} version {version!r}\n")


DEEP = "[" * 100_000  # JSON nested past the interpreter's recursion limit
ENTRY = '{"path": "t.txt", "sha256": "00"}'  # a well-formed manifest entry


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command,text",
        [
            ("manifest-verify", "not json"),
            ("manifest-verify", '{"version": 1, "inputs": [{"sha256": "00"}]}'),
            ("manifest-verify", '{"version": 1}'),
            ("manifest-verify", '{"version": 1, "files": 5}'),
            ("manifest-verify", '{"version": 1, "inputs": [], "outputs": []}'),
            ("manifest-verify", '{"version": 1, "config": {"passes": 2}, "inputs": [' + ENTRY
             + '], "outputs": [' + ENTRY + ']}'),
            ("config", "not json"),
            ("config", "[1]"),
            ("config", '{"version": 1, "scan": [1]}'),
            ("topology", '{"version": 1, "routers": 5}'),
            ("topology", "[1]"),
            ("manifest-verify", '{"version":1,"inputs":' + DEEP),
            ("config", '{"version":1,"scan":' + DEEP),
            ("topology", '{"version":1,"routers":' + DEEP),
            ("replies", DEEP),
            ("targets", '{"address":' + DEEP),
        ],
        ids=["manifest-not-json", "manifest-entry-without-path", "manifest-without-lists",
             "manifest-files-not-listed", "manifest-empty-lists",
             "manifest-one-output-for-two-passes", "config-not-json",
             "config-not-an-object", "config-section-not-an-object",
             "topology-routers-not-a-list", "topology-not-an-object",
             "manifest-too-deep", "config-too-deep", "topology-too-deep",
             "reply-line-too-deep", "target-line-too-deep"],
    )
    def test_malformed_json_is_an_error_not_a_traceback(self, demo, capsys, command, text):
        bad = write(demo, "bad.json", text)
        targets = write(demo, "t.txt", "2001:db8:100::\n")
        argv = {
            "manifest-verify": ["manifest-verify", bad],
            "config": ["--config", bad, "demo", "--into", str(demo / "copy")],
            "topology": ["scan", "--targets", targets, "--sim-topology", bad,
                         "-o", str(demo / "out.ndjson")],
            "replies": ["analyze", "summarize", "--replies", bad, "--targets", targets],
            "targets": ["analyze", "summarize", "--targets", bad,
                        "--replies", write(demo, "r.ndjson", "")],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["scan", "--hop-limit", "0"], "hop_limit must be in 1..255"),
            (["scan", "--cooldown", "-1"], "cooldown must be >= 0"),
            (["scan", "--source", "2001:db8::/64"], "--source: expected a bare address"),
            (["analyze", "loops", "--subnet-length", "200"], "--subnet-length"),
            (["analyze", "loops", "--subnet-length", "-1"], "--subnet-length"),
            (["scan", "--rate", "nan"], "--rate must be a finite number above 0"),
            (["scan", "--rate", "inf"], "--rate must be a finite number above 0"),
            (["scan", "--rate", "1e-310"], "--rate must be a finite number above 0"),
            (["analyze", "loops", "--min-time-exceeded", "0"], "--min-time-exceeded"),
            (["analyze", "loops", "--min-time-exceeded", "-1"], "--min-time-exceeded"),
        ],
        ids=["hop-limit-0", "cooldown-negative", "source-prefix", "subnet-length-200",
             "subnet-length-negative", "rate-nan", "rate-inf", "rate-interval-inf",
             "min-time-exceeded-0", "min-time-exceeded-negative"],
    )
    def test_bad_flag_is_an_error_not_a_traceback(self, demo, capsys, argv, message):
        targets = write(demo, "t.txt", "2001:db8:400::\n")
        # A Time Exceeded reply, so loops has a subnet to cut at the bad length.
        replies = write(
            demo,
            "r.ndjson",
            '{"ts":0.0,"kind":"time_exceeded","type":3,"code":0,"src":"2001:db8:ffff:1::1",'
            '"embedded_target":"2001:db8:400::","hop_limit":64}\n',
        )
        inputs = {
            "scan": ["--targets", targets, "--sim-topology", str(demo / "demo_topology.json"),
                     "-o", str(demo / "out.ndjson")],
            "analyze": ["--replies", replies, "--targets", targets],
        }[argv[0]]
        assert run(*argv, *inputs) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestAnalyzeCli:
    def prepared(self, demo):
        targets = str(demo / "targets.txt")
        run(
            "gen-targets", "--mode", "bgp", "--stage", "2",
            "--prefixes", str(demo / "demo_subnets.txt"), "-o", targets,
        )
        run(
            "scan", "--targets", targets,
            "--sim-topology", str(demo / "demo_topology.json"),
            "--rate", "1000", "--passes", "2", "-o", str(demo / "r.ndjson"),
        )
        return targets, str(demo / "r.pass0.ndjson"), str(demo / "r.pass1.ndjson")

    def test_summarize_emits_json_and_csv(self, demo, capsys):
        targets, pass0, _ = self.prepared(demo)
        csv_path = str(demo / "s.csv")
        assert run(
            "analyze", "summarize", "--replies", pass0, "--targets", targets,
            "--csv", csv_path,
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["r.pass0.ndjson"]["targets_probed"] == 4
        assert (demo / "s.csv").read_text().startswith("scan,")

    def test_summarize_refuses_reply_files_that_share_a_name(self, demo, capsys):
        targets = write(demo, "t.txt", "2001:db8:100::\n")
        # Neither file exists: the names are refused before any file is read.
        first, second = str(demo / "a" / "r.ndjson"), str(demo / "b" / "r.ndjson")
        assert run(
            "analyze", "summarize", "--replies", first, second, "--targets", targets,
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert first in captured.err and second in captured.err
        assert captured.out == ""

    def test_visibility_counts_filtered_routers(self, demo, capsys):
        targets, pass0, pass1 = self.prepared(demo)
        assert run(
            "analyze", "visibility", "--replies", pass0, pass1,
            "--targets", targets, "--aliased", str(demo / "demo_aliased.txt"),
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["scans"] == 2
        assert data["always"] >= 1

    def test_stability_requires_two_scans(self, demo, capsys):
        targets, pass0, _ = self.prepared(demo)
        assert run(
            "analyze", "stability", "--replies", pass0, "--targets", targets,
        ) == 2
        assert "two scans" in capsys.readouterr().err

    def test_loops_reads_exactly_one_file(self, demo, capsys):
        targets, pass0, pass1 = self.prepared(demo)
        assert run(
            "analyze", "loops", "--replies", pass0, pass1, "--targets", targets,
        ) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_loops_on_loop_free_demo_is_empty(self, demo, capsys):
        targets, pass0, _ = self.prepared(demo)
        assert run(
            "analyze", "loops", "--replies", pass0, "--targets", targets,
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["looping_subnets"] == []

    def test_loops_csv_lists_the_routers_of_a_real_loop(self, tmp_path, capsys):
        topology = str(tmp_path / "loop.json")
        netsim.save_topology(netsim.build_loop_topology(replication_factor=2), topology)
        # 2001:db8:1::/48 is the customer's own subnet.  Probes into the rest
        # of 2001:db8::/32 bounce between provider and customer; at hop limit
        # 3 the customer doubles each one and both copies expire at the
        # provider's uplink.
        targets = write(tmp_path, "t.txt", "2001:db8:1::\n2001:db8:5::\n2001:db8:7:1::\n")
        replies = str(tmp_path / "r.ndjson")
        assert run(
            "scan", "--targets", targets, "--sim-topology", topology,
            "--hop-limit", "3", "--rate", "1e7", "-o", replies,
        ) == 0
        csv_path = tmp_path / "loops.csv"
        assert run(
            "analyze", "loops", "--replies", replies, "--targets", targets,
            "--csv", str(csv_path),
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["looping_subnets"] == ["2001:db8:5::/48", "2001:db8:7::/48"]
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["router", "looping_subnets", "amplification"],
            ["2001:db8:ffff:fffe::1", "2", "2"],
        ]
        assert rows[1:] == [
            [ip, str(src["looping_subnets"]), str(src["amplification"])]
            for ip, src in report["routers"].items()
        ]

    def test_compare_validates_set_syntax(self, demo, capsys):
        assert run("analyze", "compare", "--set", "nofile") == 2
        assert "NAME=FILE" in capsys.readouterr().err

    def test_compare_refuses_a_repeated_set_name(self, demo, capsys):
        # None of the files exists: the name is refused before any file is read.
        missing = str(demo / "missing.txt")
        assert run(
            "analyze", "compare",
            "--set", f"a={missing}", "--set", f"a={missing}", "--set", f"b={missing}",
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --set names 'a' twice\n"
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["", "a+b", "a&b"])
    def test_compare_refuses_a_set_name_the_report_cannot_key(self, demo, capsys, name):
        # The report keys intersections by names joined with "+" and pairs
        # with "&", so a set "a+b" would overwrite the key of a and b's.
        # None of the files exists: the name is refused before any file is read.
        missing = str(demo / "missing.txt")
        assert run(
            "analyze", "compare",
            "--set", f"a={missing}", "--set", f"b={missing}", "--set", f"{name}={missing}",
        ) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --set name {name!r} must be non-empty, without '+' or '&'\n"
        )
        assert captured.out == ""

    def test_missing_required_inputs_are_reported(self, demo, capsys):
        assert run("analyze", "summarize") == 2
        assert "--replies" in capsys.readouterr().err


class TestDemo:
    def test_demo_copies_the_bundled_inputs(self, tmp_path, capsys):
        assert run("demo", "--into", str(tmp_path / "sub")) == 0
        names = {p.name for p in (tmp_path / "sub").iterdir()}
        assert names == {
            "demo_aliased.txt",
            "demo_config.json",
            "demo_subnets.txt",
            "demo_topology.json",
        }


# --- line-oriented inputs ------------------------------------------------------

CHUNK = 8192  # the bytes TextIOWrapper decodes at a time as it iterates a file


def reference_read(path, parse):
    """What `read_records` gives over the iterated file, or its error as
    `_load` reports it."""
    try:
        with open(path) as fh:
            return list(addresses.read_records(fh, parse))
    except ValueError as exc:
        return f"{path}: {exc}"


def lines_until_error(lines) -> list[str]:
    """The lines read, then the error that stopped the reading, if any."""
    read = []
    try:
        read.extend(lines)
    except UnicodeDecodeError as exc:
        read.append(f"{type(exc).__name__}: {exc}")
    return read


def loaded(path, read):
    try:
        return cli._load(path, read)
    except cli.CliError as exc:
        return str(exc)


_addresses = st.integers(0, (1 << 128) - 1)
_REPLY_LINES = TestGenTargets.reply_lines(10)[0]

# Each reader of _load, the parser of one of its lines, and its valid lines.
LINE_READERS = {
    "addresses": (
        addresses.read_addresses,
        addresses.parse_target_line,
        st.one_of(
            _addresses.map(addresses.format_address),
            _addresses.map(lambda a: json.dumps({"address": addresses.format_address(a)})),
        ),
    ),
    "hitlist": (
        addresses.read_hitlist,
        addresses.parse_address,
        st.one_of(_addresses.map(addresses.format_address), st.just("fe80::1%eth0")),
    ),
    "prefixes": (
        addresses.read_prefixes,
        addresses.parse_prefix,
        st.builds(
            lambda a, n: f"{addresses.format_address(a >> (128 - n) << (128 - n))}/{n}",
            _addresses, st.integers(0, 128),
        ),
    ),
    "replies": (
        analysis.read_replies,
        probe_engine.ReplyRecord.from_json,
        st.sampled_from(_REPLY_LINES),
    ),
}

LINE_KINDS = [
    "valid", "valid", "run", "padded", "blank", "spaces", "comment", "bad",
    "non-ascii", "long", "straddle", "crlf", "undecodable",
]
SPECIAL_LINES = {
    "blank": "",
    "spaces": " \t ",
    "comment": "# note",
    "bad": "zz",
    "non-ascii": "# \u00e9\u20ac\U0001f600",
    "long": "#" + "x" * (2 * CHUNK + 100),  # holds a chunk with no newline
}


@st.composite
def line_files(draw, valid):
    """The bytes of a line-oriented input: valid lines alone and in runs,
    padded, blank, # and bad lines, non-ASCII text, a line longer than two
    chunks, a multi-byte character or a CRLF that straddles a chunk
    boundary, and a byte that is not UTF-8; LF, CRLF or lone-CR endings,
    and maybe no newline at the end."""
    out = bytearray()
    ending = b""
    for kind in draw(st.lists(st.sampled_from(LINE_KINDS), max_size=12)):
        ending = draw(st.sampled_from(["\n", "\r\n", "\r"])).encode()
        if kind == "valid":
            text = draw(valid).encode()
        elif kind == "run":
            text = ending.join([draw(valid).encode()] * draw(st.integers(1, 400)))
        elif kind == "padded":
            text = f" {draw(valid)}\t".encode()
        elif kind == "straddle":
            # `before` bytes of the character end one chunk, the rest start the next.
            char = draw(st.sampled_from(["\u00e9", "\u20ac", "\U0001f600"])).encode()
            before = draw(st.integers(1, len(char) - 1))
            text = b"#" + b"a" * (-(len(out) + 1 + before) % CHUNK) + char
        elif kind == "crlf":
            # The CR ends one chunk, the LF starts the next.
            text = b"#" + b"a" * ((CHUNK - 1 - (len(out) + 1)) % CHUNK)
            ending = b"\r\n"
        elif kind == "undecodable":
            text = b"\xff"
        else:
            text = SPECIAL_LINES[kind].encode()
        out += text + ending
    if draw(st.booleans()):
        del out[len(out) - len(ending):]
    return bytes(out)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "input.txt"


@pytest.mark.parametrize("name", list(LINE_READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_load_reads_what_iterating_the_file_reads(name, data, input_path):
    """Read a decoded chunk at a time, a file gives each reader the values,
    the `line N` error or the decode error that iterating it line by line
    gives `read_records`."""
    read, parse, valid = LINE_READERS[name]
    input_path.write_bytes(data.draw(line_files(valid)))
    with open(input_path) as fh, open(input_path) as iterated:
        assert fh._CHUNK_SIZE == CHUNK
        assert lines_until_error(addresses.text_lines(fh)) == lines_until_error(
            line.removesuffix("\n") for line in iterated
        )
    assert loaded(input_path, read) == reference_read(input_path, parse)


@pytest.mark.parametrize("shift,raised", [(0, "line 2002: "), (1, "'utf-8' codec")])
def test_a_bad_line_ending_a_chunk_is_named_before_an_undecodable_byte_in_the_next(
    tmp_path, capsys, shift, raised
):
    """A line whose newline ends the first chunk is read before the second
    chunk is decoded; one byte later, the decode error comes first."""
    lines = "::1\n" * 2000
    head = lines + "#" + "a" * (CHUNK + shift - len(lines) - 5) + "\n"
    path = tmp_path / "targets.txt"
    path.write_bytes((head + "zz\n::2\n").encode() + b"\xff\n")
    assert len(head + "zz\n") == CHUNK + shift
    assert run("scan", "--targets", str(path), "--sim-topology", "unread.json") == 2
    err = capsys.readouterr().err
    assert err == f"error: {reference_read(path, addresses.parse_target_line)}\n"
    assert err.startswith(f"error: {path}: {raised}")


@pytest.mark.parametrize("length", ["4_8", "+48", " 48", "\u0664\u0668"])
@pytest.mark.parametrize("where", ["prefixes", "exclude", "subnet"])
def test_a_prefix_length_that_is_not_ascii_decimal_is_refused(
    demo, capsys, monkeypatch, where, length
):
    """int() reads each of these lengths as 48; a prefix file, --exclude and
    a topology subnet refuse it, as ipaddress does."""
    monkeypatch.setattr(netsim.SimTransport, "send", refuse_to_send)
    topology = demo / "demo_topology.json"
    scan = [
        "scan", "--targets", write(demo, "t.txt", "2001:db8:100::\n"),
        "--sim-topology", str(topology), "-o", str(demo / "r.ndjson"),
    ]
    bad = f"2001:db8:300::/{length}"
    if where == "subnet":
        topology.write_text(topology.read_text().replace('"2001:db8:300::/48"', json.dumps(bad)))
        argv, source = scan, str(topology)
    else:
        path = write(demo, "p.txt", f"2001:db8:100::/40\n{bad}\n")
        argv = ["gen-targets", "--mode", "bgp", "--prefixes", path]
        if where == "exclude":
            argv = [*scan, "--exclude", path]
        source = f"{path}: line 2"
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {source}: bad prefix length {length!r}\n"


def test_padded_prefix_lines_load_through_the_stripping_parse(demo, capsys):
    """Whitespace after a length leaves the block path to the per-line
    parse, which strips it: the padded prefix file gives the same targets,
    and a padded --exclude line still excludes."""
    clean = (demo / "demo_subnets.txt").read_text().splitlines()
    padded = write(demo, "padded.txt", "".join(f"{line} \n" for line in clean))
    outputs = []
    for path in (str(demo / "demo_subnets.txt"), padded):
        assert run("gen-targets", "--mode", "bgp", "--prefixes", path) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != ""
    exclude = write(demo, "exclude.txt", "2001:db8::/32\t\n")
    assert run(
        "scan", "--targets", write(demo, "t.txt", "2001:db8:100::\n"), "--exclude", exclude,
        "--sim-topology", str(demo / "demo_topology.json"), "-o", str(demo / "r.ndjson"),
    ) == 0
    assert "excluded 1 of 1" in capsys.readouterr().err


def test_the_package_runs_as_a_module_from_a_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "srascan", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: srascan")


def fresh_output(code: str, *flags: str) -> str:
    """What `code` prints in a fresh interpreter, which writes no bytecode."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-B", *flags, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(modules: str, names: set[str], *flags: str) -> str:
    """The printed sorted list of `names` that `import modules` loads in a
    fresh interpreter."""
    return fresh_output(f"import sys, {modules}; print(sorted({names!r} & set(sys.modules)))", *flags)


def test_importing_the_cli_leaves_what_only_some_commands_read_unloaded():
    names = {
        "srascan.analysis", "srascan.netsim", "srascan.target_gen", "srascan.probe_engine",
        "csv", "datetime", "hashlib",
    }
    assert loaded_after("srascan.cli", names) == "[]\n"


def test_the_scan_path_imports_neither_dataclasses_nor_inspect():
    # bench/setup_probe.py times these imports as every scan's set-up; -S
    # keeps site's own imports out of the answer.  A scan runs no plan, no
    # report and no OpenSSL code, and opens no socket of its own.
    names = {
        "dataclasses", "inspect", "srascan.target_gen", "srascan.analysis",
        "hashlib", "_hashlib", "hmac", "socket",
    }
    assert loaded_after("srascan.cli, srascan.netsim", names, "-S") == "[]\n"


def modules_loaded_by(cwd, argv: list[str], names: set[str]) -> str:
    """The printed sorted list of `names` loaded once `cli.main(argv)` has
    run in a fresh interpreter; the command must succeed, or exit 0 as
    `--help` does."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; from srascan import cli\n"
        "try: rc = cli.main(sys.argv[2:])\n"
        "except SystemExit as exc: rc = exc.code\n"
        "print(rc, sorted(set(sys.argv[1].split()) & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code, " ".join(sorted(names)), *argv],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rc, _, loaded = proc.stdout.splitlines()[-1].partition(" ")
    assert rc == "0", proc.stderr
    return loaded


def test_gen_targets_loads_no_scan_module(demo):
    argv = ["gen-targets", "--mode", "bgp", "--prefixes", "demo_subnets.txt", "-o", "t.txt"]
    assert modules_loaded_by(demo, argv, {"srascan.probe_engine", "srascan.netsim"}) == "[]"


def test_a_simulated_scan_loads_no_generation_module(demo):
    write(demo, "targets.txt", "2001:db8:100::\n")
    argv = ["scan", "--targets", "targets.txt", "--sim-topology", "demo_topology.json",
            "-o", "r.ndjson"]
    assert modules_loaded_by(demo, argv, {"srascan.target_gen", "hashlib"}) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["--config", "demo_config.json", "scan", "--targets", "targets.txt",
         "--sim-topology", "demo_topology.json", "-o", "r.ndjson"],
    ],
    ids=["help", "config-scan"],
)
def test_an_argparse_command_line_imports_no_other_command(demo, argv):
    # The parser names each command by module and imports none of them.
    write(demo, "targets.txt", "2001:db8:100::\n")
    names = {"srascan.analysis", "srascan.target_gen", "srascan.manifest", "hashlib"}
    assert modules_loaded_by(demo, argv, names) == "[]"


@pytest.mark.parametrize("mode", [["--mode", "bgp"], ["--mode", "route6", "--seed", "7"]],
                         ids=["bgp", "route6"])
def test_gen_targets_loads_no_openssl(demo, mode):
    # route6 seeds each prefix's sampler with blake2b, taken from _blake2.
    argv = ["gen-targets", *mode, "--prefixes", "demo_subnets.txt", "-o", "t.txt"]
    assert modules_loaded_by(demo, argv, {"hashlib", "_hashlib"}) == "[]"


# The modules that hold what a simulated scan never runs.
OFF_SCAN_PATH = {"srascan.topologies", "srascan.live", "srascan.manifest", "srascan.cli_fallback"}


def test_the_scan_path_loads_none_of_the_modules_split_off_it():
    assert loaded_after("srascan.cli, srascan.netsim", OFF_SCAN_PATH, "-S") == "[]\n"


# Source lines of the srascan modules that `from srascan import cli, netsim`
# compiles: every scan process compiles them where no bytecode is cached.
# A change that lowers the count lowers the budget with it.
SCAN_PATH_LINE_BUDGET = 1992


def test_the_scan_path_compiles_no_more_lines_than_its_budget():
    code = (
        "import sys; from srascan import cli, netsim; "
        "print(sum(len(open(m.__file__).read().splitlines()) for name, m in sys.modules.items() "
        "if name.partition('.')[0] == 'srascan'))"
    )
    lines = int(fresh_output(code, "-S"))
    assert lines <= SCAN_PATH_LINE_BUDGET, f"the scan path compiles {lines} lines"


def test_netsim_answers_for_the_names_moved_to_topologies():
    from srascan import topologies

    for name in ("build_gateway_fanout", "build_loop_topology", "save_topology",
                 "topology_to_dict"):
        assert getattr(netsim, name) is getattr(topologies, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        netsim.no_such_name


# bench/step.py imports these before its clock starts, and addresses with them.
STEP_IMPORTS = {"analysis", "cli", "netsim", "probe_engine", "target_gen", "addresses"}


def test_no_benchmark_command_imports_a_module_inside_cli_main(demo):
    """Each command line shape that bench/pipeline.py builds, on the demo
    inputs: a module imported for the first time inside `cli.main` would be
    compiled inside the benchmark's timed window."""
    package = Path(cli.__file__).parent
    others = {
        f"srascan.{path.stem}" for path in package.glob("*.py")
        if path.stem not in STEP_IMPORTS | {"__init__", "__main__"}
    }
    assert OFF_SCAN_PATH <= others
    exclude = write(demo, "exclude.txt", "2001:db8:ffff::/48\n")
    aliased = write(demo, "aliased.txt", "2001:db8:100::/48\n")
    replies = ["--replies", "replies.pass0.ndjson", "replies.pass1.ndjson",
               "--targets", "targets.txt", "--aliased", aliased]
    gen = {
        "grid48": ["--mode", "bgp", "--stage", "all"],
        "loop": ["--mode", "route6", "--samples-per-prefix", "250", "--seed", "3141592653"],
        "fanout": ["--mode", "bgp", "--stage", "1"],  # last: its list is the one scanned
    }
    lines = [
        ["gen-targets", *args, "--prefixes", "demo_subnets.txt", *tail]
        for args in gen.values()
        for tail in (["--count-only"], ["-o", "targets.txt"])
    ]
    lines.append([
        "scan", "--targets", "targets.txt", "--transport", "sim",
        "--sim-topology", "demo_topology.json", "--rate", "10000000.0",
        "--hop-limit", "64", "--passes", "2", "--secret", "16045690984503098046",
        "-o", "replies.ndjson", "--exclude", exclude,
    ])
    lines += [["analyze", action, *replies] for action in ("summarize", "visibility", "stability")]
    lines.append(["analyze", "loops", "--replies", "replies.pass1.ndjson",
                  "--targets", "targets.txt", "--aliased", aliased])
    for argv in lines:
        assert modules_loaded_by(demo, argv, others) == "[]", argv


@pytest.mark.parametrize(
    "argv,out",
    [
        (["--config", "demo_config.json", "gen-targets", "--mode", "bgp",
          "--prefixes", "demo_subnets.txt", "--count-only"], "{"),
        (["demo", "--into", "copy"], "copy"),
    ],
    ids=["config", "demo"],
)
def test_a_command_off_the_scan_path_runs_in_a_fresh_interpreter(demo, argv, out):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "srascan", *argv],
        cwd=demo, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(out)


def test_a_manifest_is_written_and_verified_in_fresh_interpreters(demo):
    write(demo, "targets.txt", "2001:db8:100::\n")
    src = Path(__file__).resolve().parent.parent / "src"
    for argv in (
        ["scan", "--targets", "targets.txt", "--sim-topology", "demo_topology.json",
         "-o", "r.ndjson", "--manifest", "run.json"],
        ["manifest-verify", "run.json"],
    ):
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "srascan", *argv],
            cwd=demo, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok: 3 files verified\n"


PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_importing_the_cli_loads_no_argument_parser():
    assert loaded_after("srascan.cli", PARSER_MODULES) == "[]\n"


def bench_command_lines(demo) -> dict[str, list[str]]:
    """The command lines that bench/pipeline.py builds, over the demo inputs,
    each after the commands whose outputs it reads have run."""
    exclude = write(demo, "exclude.txt", "2001:db8:ffff::/48\n")
    aliased = write(demo, "aliased.txt", "2001:db8:100::/48\n")
    return {
        "gen-targets": [
            "gen-targets", "--mode", "bgp", "--stage", "all",
            "--prefixes", "demo_subnets.txt", "--count-only",
        ],
        "gen-targets stage 1": [
            "gen-targets", "--mode", "bgp", "--stage", "1",
            "--prefixes", "demo_subnets.txt", "-o", "targets.txt",
        ],
        "gen-targets route6": [
            "gen-targets", "--mode", "route6", "--samples-per-prefix", "250",
            "--seed", "3141592653", "--prefixes", "demo_subnets.txt", "-o", "targets.txt",
        ],
        "scan --transport sim": [
            "scan", "--targets", "targets.txt", "--transport", "sim",
            "--sim-topology", "demo_topology.json", "--rate", "10000000.0",
            "--hop-limit", "64", "--passes", "2", "--secret", "16045690984503098046",
            "-o", "replies.ndjson", "--exclude", exclude,
        ],
        "analyze summarize": [
            "analyze", "summarize", "--replies", "replies.pass0.ndjson", "replies.pass1.ndjson",
            "--targets", "targets.txt", "--aliased", aliased,
        ],
    }


@pytest.mark.parametrize(
    "name", ["gen-targets", "gen-targets stage 1", "gen-targets route6", "scan --transport sim",
             "analyze summarize"],
)
def test_a_benchmark_command_line_is_parsed_without_argparse(demo, monkeypatch, name):
    monkeypatch.chdir(demo)
    lines = bench_command_lines(demo)
    for before in list(lines)[1:list(lines).index(name)]:
        assert run(*lines[before]) == 0
    argv = lines[name]
    assert vars(cli._parse_exact(argv)) == vars(full_parse(argv))
    assert modules_loaded_by(demo, argv, PARSER_MODULES) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["gen-targets", "--mo", "nope"],  # an abbreviated flag
        ["scan", "--targets", "t.txt", "--h"],  # --help or --hop-limit
        ["--config"],
        ["--config", "{config}", "scan", "--help"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_command_line_left_to_argparse_prints_its_text(tmp_path, monkeypatch, capsys, argv):
    config = write(tmp_path, "c.json", json.dumps({"version": 1, "scan": {"rate": 5}}))
    argv = [arg.format(config=config) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert cli._parse_exact(argv) is None
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "srascan", *argv],
        env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
        capture_output=True, text=True, timeout=60,
    )
    outcome, out, err = parse_outcome(full_parse, argv, capsys)
    assert outcome[0] == "exit" and err + out != ""
    assert (proc.returncode, proc.stdout, proc.stderr) == (outcome[1], out, err)


def test_the_scan_path_takes_the_c_functions_behind_the_public_ones():
    """The scan path imports these from the C modules, so a Python whose
    public functions are something else fails here instead of scanning
    differently."""
    import _blake2
    import _operator
    import _socket
    import hashlib
    import hmac
    import socket

    assert _blake2.blake2b is hashlib.blake2b
    assert _socket.inet_pton is socket.inet_pton
    assert _socket.inet_ntop is socket.inet_ntop
    assert _socket.AF_INET6 == socket.AF_INET6
    for a, b in [(b"", b""), (b"tag", b"tag"), (b"tag", b"tog"), (b"tag", b"tags"),
                 (bytes(8), bytes(8)), (bytes(8), bytes(7) + b"\x01")]:
        assert _operator._compare_digest(a, b) is hmac.compare_digest(a, b) is (a == b)


def test_the_scan_path_leaves_the_hex_digit_table_unbuilt():
    # The table is built on the first /64-grid probe list written, so
    # commands that write none, and bench/setup_probe.py, skip its cost.
    code = (
        "import srascan.cli, srascan.netsim; from srascan import target_gen; "
        "print(target_gen._hex_digits.cache_info().currsize)"
    )
    assert fresh_output(code, "-S") == "0\n"


@pytest.mark.parametrize("csv_flag,imported", [([], "False"), (["--csv", "s.csv"], "True")])
def test_analyze_imports_csv_only_to_write_csv(demo, csv_flag, imported):
    src = Path(__file__).resolve().parent.parent / "src"
    write(demo, "t.txt", "2001:db8:100::\n")
    write(demo, "r.ndjson", "")
    code = (
        "import sys; from srascan import cli; "
        "print(cli.main(sys.argv[1:]), 'csv' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-S", "-c", code,
         "analyze", "summarize", "--replies", "r.ndjson", "--targets", "t.txt", *csv_flag],
        cwd=demo, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {imported}"


def full_parse(argv):
    """The parse every command made before a command built only its own arguments."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    return cli_fallback.build_parser(known.config).parse_args(argv)


def parse_outcome(parse, argv, capsys):
    """What a parse gave: its namespace, or how it exited and what it printed."""
    try:
        outcome = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    except cli.CliError as exc:
        outcome = ("error", str(exc), exc.exit_code)
    except OSError as exc:
        outcome = ("os-error", str(exc))
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # valid
        ["gen-targets", "--mode", "bgp", "--prefixes", "p.txt"],
        ["gen-targets", "--mode=route6", "--prefixes", "p.txt", "--seed", "4", "--ndjson"],
        ["scan", "--targets", "t.txt", "--sim-topology", "x.json", "--rate", "1000",
         "--passes", "2", "-o", "r.ndjson"],
        ["scan", "--targ", "t.txt", "--sim", "x.json", "--hop", "9"],  # abbreviations
        ["analyze", "summarize", "--replies", "a", "b", "--targets", "t"],
        ["analyze", "compare", "--set", "a=x", "--set", "b=y", "--csv", "c.csv"],
        ["manifest-verify", "m.json"],
        ["demo"],
        ["demo", "--into", "d"],
        # invalid
        [],
        ["bogus"],
        ["scan"],
        ["scan", "--targets"],
        ["scan", "--targets", "t", "--rate", "fast"],
        ["scan", "--targets", "t", "--h"],  # ambiguous: --help or --hop-limit
        ["scan", "--targets", "t", "extra"],
        ["gen-targets", "--mode", "nope"],
        ["analyze", "nope"],
        ["manifest-verify"],
        ["demo", "extra"],
        ["--bogus", "demo"],
        ["demo", "scan"],
        ["--config"],
        # help
        ["--help"],
        ["-h"],
        ["--he"],
        ["demo", "-h"],
        ["scan", "--help"],
        ["scan", "-h", "--targets", "t"],
        ["analyze", "--he"],
        # --config before the subcommand
        ["--config", "{good}", "scan", "--targets", "t"],
        ["--config={good}", "gen-targets", "--mode", "bgp"],
        ["--conf", "{good}", "demo"],
        ["--config", "{good}", "demo"],
        ["--config", "{good}", "--help"],
        ["--config", "{good}", "scan", "-h"],
        ["--config", "{good}", "scan"],
        ["--config", "{bad}", "demo"],
        ["--config", "{bad}", "scan", "--targets", "t"],
        ["--config", "{unknown}", "analyze", "summarize"],
        ["--config", "{missing}", "demo"],
        # --config after it
        ["scan", "--targets", "t", "--config", "{good}"],
        ["demo", "--config", "{good}"],
        ["demo", "--config", "{bad}"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_subcommand_parser_parses_as_the_full_one(argv, tmp_path, capsys):
    configs = {
        "good": {"version": 1, "gen-targets": {"seed": 3}, "scan": {"rate": 50, "passes": 2}},
        "bad": {"version": 1, "scan": {"rate": "fast"}},
        "unknown": {"version": 1, "analyze": {}},
    }
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, config in configs.items():
        paths[name] = write(tmp_path, f"{name}.json", json.dumps(config))
    argv = [arg.format(**paths) for arg in argv]
    assert parse_outcome(cli.parse_args, argv, capsys) == parse_outcome(full_parse, argv, capsys)


def test_analyze_lists_the_reports_as_its_actions():
    (action,) = (kw for names, kw in cli._arguments("analyze") if names == ("action",))
    assert action["choices"] == tuple(analysis.REPORTS)


def test_the_option_table_holds_only_what_the_exact_parser_reads():
    for _, _, arguments in cli._SUBCOMMANDS.values():
        for flags, kw in arguments:
            assert set(kw) <= {
                "type", "choices", "default", "required", "action", "nargs", "metavar", "help"
            }
            assert kw.get("type") in (None, int, float)
            assert kw.get("action") in (None, "store_true", "append")
            assert kw.get("nargs") in (None, "*")
            assert len(flags) == 1 or all(flag.startswith("-") for flag in flags)


def test_no_two_parses_share_a_list_default():
    for argv in (["analyze", "compare"], ["analyze", "compare", "--lab", "l.csv"]):
        first = cli.parse_args(argv)
        first.set.append("a=x")
        first.replies.append("r.ndjson")
        again = cli.parse_args(argv)
        assert (again.set, again.replies) == ([], [])
    twice = ["analyze", "compare", "--set", "a=x", "--set", "b=y"]
    assert cli.parse_args(twice).set == ["a=x", "b=y"] == cli.parse_args(twice).set


TABLE = {name: list(cli._arguments(name)) for name in cli._SUBCOMMANDS}
BAD_VALUES = ["", "x", "1.5", "1e400", "0x10", "nope", "inf"]
DASH_VALUES = ["-", "-1", "-0.5", "--", "--targets", "-o", "-x"]
STRAY_TOKENS = ["extra", "-x", "--bogus", "--", "-", "-h", "--help", "--config", "--config=c.json"]


def _value(kw: dict):
    """A text that the argument of `kw` takes and that starts with no "-"."""
    if "choices" in kw:
        return st.sampled_from(list(kw["choices"]))
    if kw.get("type") is int:
        return st.integers(0, 1 << 70).map(str)
    if kw.get("type") is float:
        return st.one_of(st.floats(min_value=0), st.just(float("nan"))).map(repr)
    return st.sampled_from(["t.txt", "a", "b.ndjson", ".", "name=f", " -x"])


@st.composite
def _flag_tokens(draw, flags: tuple, kw: dict) -> list[str]:
    flag = draw(st.sampled_from(flags))
    if kw.get("action") == "store_true":
        return [flag]
    if kw.get("nargs") == "*":
        return [flag, *draw(st.lists(_value(kw), max_size=3))]
    return [flag, draw(_value(kw))]


@st.composite
def command_lines(draw):
    """A command line of the option table, and whether it is well-formed.

    A well-formed one gives the subcommand, its positional and every
    required flag, then flags drawn from the table (repeats among them),
    each by its exact name with values it takes.  The others are such a
    line with one or two faults: a value replaced by an unconvertible or
    out-of-range one or by one that starts with "-", a flag abbreviated or
    written `--flag=value`, a token group dropped (a required flag, say) or
    its value left off, or a stray token put in.
    """
    command = draw(st.sampled_from(list(TABLE)))
    groups = [[command]]
    options = []
    for flags, kw in TABLE[command]:
        if not flags[0].startswith("-"):
            groups.append([draw(_value(kw))])
            continue
        options.append((flags, kw))
        if kw.get("required"):
            groups.append(draw(_flag_tokens(flags, kw)))
    for _ in range(draw(st.integers(0, 5)) if options else 0):
        groups.append(draw(_flag_tokens(*draw(st.sampled_from(options)))))
    faults = draw(st.integers(0, 2))
    for _ in range(faults):
        i = draw(st.integers(0, len(groups)))
        fault = draw(st.sampled_from(
            ["value", "dash", "abbreviation", "equals", "drop", "bare", "stray"]
        ))
        if fault == "stray" or i == len(groups):
            groups.insert(i, [draw(st.sampled_from(STRAY_TOKENS))])
            continue
        group = groups[i]
        if fault in ("value", "dash"):
            values = BAD_VALUES if fault == "value" else DASH_VALUES
            group[draw(st.integers(min(1, len(group) - 1), len(group) - 1))] = draw(
                st.sampled_from(values)
            )
        elif fault == "abbreviation" and group[0].startswith("--") and len(group[0]) > 3:
            group[0] = group[0][: draw(st.integers(3, len(group[0]) - 1))]
        elif fault == "equals" and group[0].startswith("-"):
            value = group.pop(1) if len(group) > 1 else draw(st.sampled_from(BAD_VALUES))
            group[0] = f"{group[0]}={value}"
        elif fault == "drop":
            del groups[i]
        elif fault == "bare":
            del group[1:]
    return [token for group in groups for token in group], faults == 0


def _nan_as_text(outcome):
    """`parse_outcome`'s result with each NaN value as "nan", which compares equal."""
    result, out, err = outcome
    if result[0] == "namespace":
        result = ("namespace", {k: "nan" if v != v else v for k, v in result[1].items()})
    return result, out, err


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=command_lines())
# `--flag=value` of a switch, an nargs="*" flag and an append flag
@example(drawn=(["gen-targets", "--mode", "bgp", "--ndjson=1"], False))
@example(drawn=(["analyze", "summarize", "--replies=a", "b"], False))
@example(drawn=(["analyze", "compare", "--set=a=x"], False))
# a value that argparse reads as a flag, or as the end of the flags
@example(drawn=(["scan", "--targets", "-o", "x"], False))
@example(drawn=(["scan", "--targets", "--"], False))
def test_the_table_parser_agrees_with_argparse(drawn, tmp_path, monkeypatch, capsys):
    argv, well_formed = drawn
    monkeypatch.chdir(tmp_path)  # a --config path names no file here
    outcome = _nan_as_text(parse_outcome(cli.parse_args, argv, capsys))
    assert outcome == _nan_as_text(parse_outcome(full_parse, argv, capsys)), argv
    if well_formed:
        assert cli._parse_exact(argv) is not None, argv
