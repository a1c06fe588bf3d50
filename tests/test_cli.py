"""Command line behavior, exercised through main() with real files."""

import hashlib
import ipaddress
import json
from collections import Counter, deque

import pytest

import rfc4443_oracle as oracle
from srascan import cli, netsim, probe_engine, target_gen


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


# Every generation mode, for tests that must hold in each.
gen_modes = pytest.mark.parametrize(
    "mode",
    [
        ["--mode", "bgp", "--stage", "1"],
        ["--mode", "bgp", "--stage", "2"],
        ["--mode", "bgp", "--stage", "3"],
        ["--mode", "bgp", "--stage", "all"],
        ["--mode", "route6", "--samples-per-prefix", "7", "--seed", "3"],
        ["--mode", "hitlist"],
    ],
    ids=["bgp1", "bgp2", "bgp3", "bgpall", "route6", "hitlist"],
)


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

    @pytest.mark.parametrize("max_targets", [None, 0, 3, 10**9])
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

    @gen_modes
    def test_text_output_builds_no_probe_target(self, demo, monkeypatch, mode):
        def refuse(target):
            raise AssertionError("a ProbeTarget was built")

        monkeypatch.setattr(target_gen.ProbeTarget, "__post_init__", refuse)
        argv = [
            "gen-targets", *mode, "--prefixes", str(demo / "demo_subnets.txt"),
            "--hitlist", write(demo, "h.txt", "2001:db8:100::1\n2001:db8:200:1::1\n"),
        ]
        out = demo / "targets.txt"
        assert run(*argv, "-o", str(out)) == 0
        assert out.read_text()
        # The patch bites: provenance output does build ProbeTargets.
        with pytest.raises(AssertionError, match="ProbeTarget"):
            run(*argv, "--ndjson", "-o", str(out))

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
        ],
        ids=["prefixes", "hitlist", "targets", "targets-ndjson", "targets-ndjson-number",
             "replies", "replies-not-an-object", "labels"],
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
        monkeypatch.setattr(probe_engine, "LiveTransport", lambda *a: opened.append(a))
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

        monkeypatch.setattr(probe_engine, "LiveTransport", FailingLiveTransport)
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


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command,text",
        [
            ("manifest-verify", "not json"),
            ("manifest-verify", '{"version": 1, "inputs": [{"sha256": "00"}]}'),
            ("config", "not json"),
            ("config", "[1]"),
            ("config", '{"version": 1, "scan": [1]}'),
            ("topology", '{"version": 1, "routers": 5}'),
            ("topology", "[1]"),
        ],
        ids=["manifest-not-json", "manifest-entry-without-path", "config-not-json",
             "config-not-an-object", "config-section-not-an-object",
             "topology-routers-not-a-list", "topology-not-an-object"],
    )
    def test_malformed_json_is_an_error_not_a_traceback(self, demo, capsys, command, text):
        bad = write(demo, "bad.json", text)
        targets = write(demo, "t.txt", "2001:db8:100::\n")
        argv = {
            "manifest-verify": ["manifest-verify", bad],
            "config": ["--config", bad, "demo", "--into", str(demo / "copy")],
            "topology": ["scan", "--targets", targets, "--sim-topology", bad,
                         "-o", str(demo / "out.ndjson")],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
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
            (["analyze", "loops", "--min-time-exceeded", "0"], "--min-time-exceeded"),
            (["analyze", "loops", "--min-time-exceeded", "-1"], "--min-time-exceeded"),
        ],
        ids=["hop-limit-0", "cooldown-negative", "source-prefix", "subnet-length-200",
             "subnet-length-negative", "rate-nan", "rate-inf", "min-time-exceeded-0",
             "min-time-exceeded-negative"],
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

    def test_compare_validates_set_syntax(self, demo, capsys):
        assert run("analyze", "compare", "--set", "nofile") == 2
        assert "NAME=FILE" in capsys.readouterr().err

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
