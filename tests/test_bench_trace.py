"""The benchmark's traced step, set-up probe and replay still run against
this source tree.

bench/tracer.py patches srascan's functions and methods by name
(`ReplyRecord.to_json` and `from_json`, `build_echo_request`, `run_scan`,
`classify_icmp`, the generators and the analysis functions), so a rename
would break only `bench/run.py --trace 1`.  bench/setup_probe.py and
`bench/checks.replay` build srascan's types by field name, so a renamed
field would fail only the benchmark.  These tests run the bench scripts in
a fresh interpreter, as the benchmark does, on the demo inputs.  They only
read bench/: no bytecode is written.
"""

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from srascan import addresses, cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    work = tmp_path_factory.mktemp("trace")
    argv = [
        ["demo", "--into", str(work)],
        ["gen-targets", "--mode", "bgp", "--stage", "2",
         "--prefixes", str(work / "demo_subnets.txt"), "-o", str(work / "targets.txt")],
        ["scan", "--targets", str(work / "targets.txt"), "--sim-topology",
         str(work / "demo_topology.json"), "--rate", "1000", "-o", str(work / "replies.ndjson")],
    ]
    for args in argv:
        assert cli.main(args) == 0
    return work


def traced_step(work: Path, argv: list[str]) -> dict:
    """The tracer's summary of one CLI command run through bench/step.py."""
    result = work / "result.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "step.py"), str(result), "--trace",
         "--", *argv],
        cwd=work, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["rc"] == 0, proc.stderr
    assert Path(data["srascan"]).is_relative_to(ROOT / "src")
    return data["trace"]


def test_traced_scan_runs_and_reports_its_spans(demo):
    trace = traced_step(demo, [
        "scan", "--targets", "targets.txt", "--sim-topology", "demo_topology.json",
        "--rate", "1000", "--passes", "2", "-o", "traced.ndjson",
    ])
    spans = trace["spans"]
    for name in ("cli.main", "probe_engine.run_scan", "probe_engine.classify_icmp",
                 "probe_engine.to_json", "netsim.inject", "netsim.load_topology",
                 "netsim.sim_init"):
        assert spans[name]["calls"] > 0, name
    assert trace["counts"]["classified"] == spans["probe_engine.to_json"]["calls"] == 8


def test_traced_analyze_runs_and_reports_its_spans(demo):
    trace = traced_step(demo, [
        "analyze", "summarize", "--replies", "replies.ndjson", "--targets", "targets.txt",
    ])
    spans = trace["spans"]
    for name in ("cli.main", "analysis.match_replies", "analysis.summarize_scan"):
        assert spans[name]["calls"] > 0, name


def test_traced_gen_targets_runs(demo):
    # The text path writes the plan without calling the gen_* generators, so
    # only the CLI span is required; the tracer must still install.
    trace = traced_step(demo, [
        "gen-targets", "--mode", "bgp", "--stage", "all",
        "--prefixes", "demo_subnets.txt", "-o", "traced.txt",
    ])
    assert trace["spans"]["cli.main"]["calls"] > 0


def test_setup_probe_times_this_source_tree(demo):
    result = demo / "setup.json"
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "setup_probe.py"), str(result),
         "demo_topology.json", "1000"],
        cwd=demo, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["setup_s"] > 0
    assert Path(data["srascan"]).is_relative_to(ROOT / "src")


def test_the_benchmark_replay_matches_a_two_pass_scan(demo, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert cli.main([
        "scan", "--targets", str(demo / "targets.txt"), "--sim-topology",
        str(demo / "demo_topology.json"), "--passes", "2", "--rate", "1000",
        "--secret", "0x5ec", "-o", str(demo / "replay.ndjson"),
    ]) == 0
    with open(demo / "targets.txt") as fh:
        targets = list(addresses.read_addresses(fh))
    expected = checks.replay(demo / "demo_topology.json", targets, 2, 64, 0x5EC, 1000.0)
    for scan_pass, lines in enumerate(expected):
        written = (demo / f"replay.pass{scan_pass}.ndjson").read_text().splitlines()
        assert written and Counter(written) == lines, scan_pass
