"""Every output of the benchmark's command lines, pinned by SHA-256 digest.

The benchmark's own inputs (seed 1 of each workload in bench/workloads.py)
go through the command lines bench/pipeline.py runs, plus the README's
ten-minute tour, all through `cli.main` in this process; each probe list is
also written with `--ndjson`.  Each output file, each stdout and each
`--csv` is hashed; a scan manifest is hashed without its `created` time.
The digests must equal tests/golden_outputs.json, so a change that alters
any output fails here, not only between two runs of one tree (C10).  On a
mismatch the test prints the new digests: updating the file is a
deliberate copy, named in CHANGES.md with its reason.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from srascan import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.json")
SEED = 1

# The bench modules are imported to read, never written: no bytecode in bench/.
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "bench"))
try:
    from pipeline import RATE
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "bench"))
    sys.dont_write_bytecode = _write_bytecode


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outputs:
    """Runs CLI commands in the current directory and records digests."""

    def __init__(self, prefix: str, capsys):
        self.prefix = prefix
        self.capsys = capsys
        self.digests: dict[str, str] = {}

    def run(self, label: str, argv: list[str]) -> None:
        self.capsys.readouterr()
        assert cli.main(argv) == 0, argv
        self.digests[f"{self.prefix}/{label}/stdout"] = sha256(
            self.capsys.readouterr().out.encode()
        )

    def file(self, name: str) -> None:
        data = Path(name).read_bytes()
        if name.endswith(".json"):  # a scan manifest, the only JSON output
            manifest = json.loads(data)
            del manifest["created"]
            data = json.dumps(manifest, sort_keys=True).encode()
        self.digests[f"{self.prefix}/{name}"] = sha256(data)


def workload_outputs(name: str, work: Path, capsys) -> dict[str, str]:
    w = WORKLOADS[name]
    inp = w.make_inputs(SEED, work)
    out = Outputs(name, capsys)
    gen = ["gen-targets", *inp.gen_args, "--prefixes", inp.prefixes]
    out.run("gen-count", gen + ["--count-only"])
    out.run("gen", gen + ["-o", "targets.txt"])
    out.run("gen-ndjson", gen + ["--ndjson", "-o", "targets.ndjson"])
    out.run("scan", [
        "scan", "--targets", "targets.txt", "--transport", "sim",
        "--sim-topology", inp.topology, "--rate", str(RATE),
        "--hop-limit", str(w.hop_limit), "--passes", str(w.passes),
        "--secret", str(inp.secret), "-o", "replies.ndjson",
    ] + (["--exclude", inp.exclude] if inp.exclude else []))
    replies = (
        ["replies.ndjson"] if w.passes == 1
        else [f"replies.pass{i}.ndjson" for i in range(w.passes)]
    )
    for path in ["targets.txt", "targets.ndjson", *replies]:
        out.file(path)
    for action in w.analyses:
        csv = f"{action}.csv"
        argv = ["analyze", action, "--replies", *(replies[-1:] if action == "loops" else replies),
                "--targets", "targets.txt", "--csv", csv]
        argv += ["--aliased", inp.aliased] if inp.aliased else []
        out.run(action, argv)
        out.file(csv)
    return out.digests


def tour_outputs(capsys) -> dict[str, str]:
    """The README's ten-minute tour, command for command, plus each --csv."""
    out = Outputs("tour", capsys)
    out.run("demo", ["demo", "--into", "."])
    out.run("gen", ["gen-targets", "--mode", "bgp", "--stage", "2",
                    "--prefixes", "demo_subnets.txt", "-o", "targets.txt"])
    out.run("gen-ndjson", ["gen-targets", "--mode", "bgp", "--stage", "2", "--ndjson",
                           "--prefixes", "demo_subnets.txt", "-o", "targets.ndjson"])
    out.run("scan", ["scan", "--targets", "targets.txt", "--sim-topology",
                     "demo_topology.json", "--rate", "1000", "-o", "replies.ndjson",
                     "--manifest", "run.json"])
    out.run("manifest-verify", ["manifest-verify", "run.json"])
    out.run("summarize", ["analyze", "summarize", "--replies", "replies.ndjson",
                          "--targets", "targets.txt", "--csv", "summarize.csv"])
    out.run("scan-multi", ["scan", "--targets", "targets.txt", "--sim-topology",
                           "demo_topology.json", "--rate", "1000", "--passes", "2",
                           "-o", "multi.ndjson"])
    for action in ("visibility", "stability"):
        out.run(action, ["analyze", action, "--replies", "multi.pass0.ndjson",
                         "multi.pass1.ndjson", "--targets", "targets.txt",
                         "--aliased", "demo_aliased.txt", "--csv", f"{action}.csv"])
    for name in ("targets.txt", "targets.ndjson", "replies.ndjson", "run.json",
                 "multi.pass0.ndjson", "multi.pass1.ndjson", "summarize.csv",
                 "visibility.csv", "stability.csv"):
        out.file(name)
    return out.digests


def test_outputs_match_the_committed_digests(tmp_path, monkeypatch, capsys):
    digests = {}
    for name in sorted(WORKLOADS):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        digests.update(workload_outputs(name, work, capsys))
    (tmp_path / "tour").mkdir()
    monkeypatch.chdir(tmp_path / "tour")
    digests.update(tour_outputs(capsys))

    golden = json.loads(GOLDEN.read_text())
    if digests != golden:
        changed = sorted(k for k in digests.keys() | golden.keys()
                         if digests.get(k) != golden.get(k))
        pytest.fail(
            "outputs differ from tests/golden_outputs.json: " + ", ".join(changed)
            + "\nnew digests, if the change is meant:\n"
            + json.dumps(digests, indent=2, sort_keys=True)
        )
