"""The benchmark's traced step still runs against this source tree.

bench/tracer.py patches srascan's functions and methods by name
(`ReplyRecord.to_json` and `from_json`, `build_echo_request`, `run_scan`,
`classify_icmp`, the generators and the analysis functions), so a rename
would break only `bench/run.py --trace 1`.  These tests run bench/step.py
with --trace in a fresh interpreter, as the benchmark does, on the demo
inputs.  They only read bench/: the interpreter writes no bytecode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from srascan import cli

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
