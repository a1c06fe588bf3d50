"""The benchmark's pipeline: seeded inputs, CLI steps in fresh processes, checks.

A `Pipeline` prepares one workload (inputs, target count, offline replay of
the expected replies) and then runs `iteration()` as often as the run allows.
Each CLI command runs through bench/step.py in its own process; a `Runner`
counts the steps attempted and the steps that exited non-zero or failed
their output check.
"""

from __future__ import annotations

import ipaddress
import json
import statistics
import subprocess
import sys
from pathlib import Path

from checks import (Networks, check_loops, check_stability, check_summarize,
                    check_targets, check_visibility, compare_replies, parse_count,
                    read_lines, replay)

BENCH = Path(__file__).resolve().parent

# Far above any rate a scan reaches, so the pacer never sleeps.  The virtual
# tick is 1/RATE, so changing it changes what the token buckets let through.
RATE = 10_000_000.0
PACE_LIMIT = 0.1  # achieved probes/s must stay below this share of RATE
STEP_TIMEOUT_S = 150
ROOT = BENCH.parent


class Runner:
    """Runs the benchmark's scripts in fresh processes; counts attempts and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: list[str], script: str, args: list[str]) -> dict | None:
        """Run bench/<script> RESULT.json ARGS...; its result, or None if it failed."""
        self.attempted += 1
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / script), str(result), *args],
                cwd=self.work, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return self.fail(label, f"no exit within {STEP_TIMEOUT_S} s")
        if proc.returncode != 0 or not result.exists():
            return self.fail(label, proc.stderr.strip()[-300:])
        data = json.loads(result.read_text())
        if not Path(data["srascan"]).is_relative_to(ROOT / "src"):
            return self.fail(label, f"ran srascan from {data['srascan']}, not this checkout")
        data["stdout"], data["stderr"] = proc.stdout, proc.stderr
        return data

    def step(self, argv: list[str], traced: bool = False, repeat: int = 1) -> dict | None:
        """One CLI command, run `repeat` times in one process (traced: once)."""
        opts = ["--trace"] if traced else ["--repeat", str(repeat)]
        data = self.run(argv, "step.py", opts + ["--"] + argv)
        if data is None:
            return None
        if data["rc"] != 0:
            return self.fail(argv, f"exit {data['rc']}: {data['stderr'].strip()[-300:]}")
        data["wall_s"] = sum(data["walls_s"])
        return data

    def fail(self, argv: list[str], why: str) -> None:
        self.failed += 1
        self.errors.append(f"{' '.join(argv[:2])}: {why}")
        return None

    def check(self, argv: list[str], error: str | None) -> bool:
        if error:
            self.fail(argv, error)
        return error is None


class Pipeline:
    """One workload's inputs, expected outputs and CLI steps."""

    def __init__(self, workload, seed: int, work: Path, runner: Runner):
        self.w = workload
        self.runner = runner
        self.work = work
        self.inputs = workload.make_inputs(seed, work)
        inp = self.inputs
        self.gen_argv = ["gen-targets", *inp.gen_args, "--prefixes", inp.prefixes]
        self.scan_argv = [
            "scan", "--targets", "targets.txt", "--transport", "sim",
            "--sim-topology", inp.topology, "--rate", str(RATE),
            "--hop-limit", str(workload.hop_limit), "--passes", str(workload.passes),
            "--secret", str(inp.secret), "-o", "replies.ndjson",
        ] + (["--exclude", inp.exclude] if inp.exclude else [])
        self.reply_paths = (
            ["replies.ndjson"] if workload.passes == 1
            else [f"replies.pass{i}.ndjson" for i in range(workload.passes)]
        )
        self.aliased = Networks(read_lines(work / inp.aliased) if inp.aliased else ())

        self.ready = False
        counted = runner.step(self.gen_argv + ["--count-only"])
        first = runner.step(self.gen_argv + ["-o", "targets.txt"])
        if counted is None or first is None:
            return
        try:
            self.count = parse_count(counted["stdout"])
        except (ValueError, KeyError, TypeError) as exc:
            runner.fail(self.gen_argv, f"unreadable --count-only output: {exc!r}")
            return
        self.targets = read_lines(work / "targets.txt")
        if not runner.check(self.gen_argv, self._check_targets(None)):
            return
        self.target_set = set(self.targets)
        excluded = Networks(read_lines(work / inp.exclude) if inp.exclude else ())
        probed = [a for a in (int(ipaddress.IPv6Address(t)) for t in self.targets)
                  if not excluded.covers(a)]
        self.probes = len(probed) * workload.passes
        self.expected = replay(
            work / inp.topology, probed, workload.passes, workload.hop_limit,
            inp.secret, RATE,
        )
        self.expected_total = sum(sum(c.values()) for c in self.expected)
        self.ready = True

    def _check_targets(self, first):
        lines = read_lines(self.work / "targets.txt")
        return check_targets(lines, self.count, first)

    def setup_s(self) -> list[float]:
        """One set-up time from a fresh process (none if the probe failed)."""
        data = self.runner.run(["setup_probe.py"], "setup_probe.py",
                               [self.inputs.topology, str(RATE)])
        return [] if data is None else [data["setup_s"]]

    def iteration(self, traced: bool) -> dict | None:
        """Run the pipeline once; return its samples, or None on a failed step.

        A rate's samples are (work, seconds) pairs, so that a run can report
        its total work over its total time; other samples are plain values.
        An untraced iteration also times set-up twice, before the scans and
        before the analyses, so that the set-up samples are spread over the
        run.
        """
        r = self.runner
        setup: list[float] = []

        def probe_setup():
            if not traced:
                setup.extend(self.setup_s())

        gen = r.step(self.gen_argv + ["-o", "targets.txt"], traced, self.w.gen_repeat)
        if gen is None or not r.check(self.gen_argv, self._check_targets(self.targets)):
            return None

        probe_setup()
        scan_samples = []
        for _ in range(self.w.scans):
            scan = self._scan(traced)
            if scan is None:
                return None
            scan_samples.append(scan)
        last = scan_samples[-1]  # the scan whose reply files the analyses read

        probe_setup()
        records = {p: [json.loads(x) for x in ls] for p, ls in zip(self.reply_paths, last["lines"])}
        scans = list(records.values())
        analyses = []
        lines_read = 0  # lines the analyze runs were given: targets plus reply files
        for action in self.w.analyses:
            # `loops` reads exactly one reply file: the last pass.
            replies = self.reply_paths[-1:] if action == "loops" else self.reply_paths
            argv = ["analyze", action, "--replies", *replies, "--targets", "targets.txt"]
            argv += ["--aliased", self.inputs.aliased] if self.inputs.aliased else []
            step = r.step(argv, traced, self.w.analyze_repeat)
            if step is None:
                return None
            out = step["stdout"]
            try:
                if action == "summarize":
                    error = check_summarize(out, records, len(self.targets))
                elif action == "visibility":
                    error = check_visibility(out, scans, self.target_set, self.aliased,
                                             self.inputs.leaf_sources)
                elif action == "stability":
                    error = check_stability(out, scans, self.target_set, self.aliased,
                                            require_stable=bool(self.inputs.leaf_sources))
                else:
                    error = check_loops(out, scans[-1], self.target_set)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                error = f"unreadable output: {exc!r}"
            if not r.check(argv, error):
                return None
            analyses.append(step)
            given = len(self.targets) + sum(len(records[p]) for p in replies)
            lines_read += given * len(step["walls_s"])

        steps = [gen, *(x["step"] for x in scan_samples), *analyses]
        sample = {
            "gen_targets_per_s": [(len(self.targets) * len(gen["walls_s"]), gen["wall_s"])],
            "analyze_lines_per_s": [(lines_read, sum(a["wall_s"] for a in analyses))],
            "setup_s": setup,
            "peak_rss_mb": [max(step["maxrss_mb"] for step in steps)],
        }
        for name in ("scan_pkts_per_s", "replies_delivered_frac", "replies_lost_frac", "pace_frac"):
            sample[name] = [x[name] for x in scan_samples]
        if traced:
            sample["layers"] = layer_metrics(gen["trace"], last["step"]["trace"],
                                             [a["trace"] for a in analyses])
        return sample

    def _scan(self, traced: bool) -> dict | None:
        """One checked scan and its samples, or None if it failed."""
        r = self.runner
        scan = r.step(self.scan_argv, traced)
        if scan is None:
            return None
        lines = [read_lines(self.work / p) for p in self.reply_paths]
        missing = 0
        for got, expected in zip(lines, self.expected):
            lost, error = compare_replies(got, expected)
            if not r.check(self.scan_argv, error):
                return None
            missing += lost
        written = sum(len(x) for x in lines)
        pace = self.probes / scan["wall_s"] / RATE
        if not r.check(self.scan_argv, f"probe rate is {pace:.0%} of --rate; the pacer may bind"
                       if pace > PACE_LIMIT else None):
            return None
        return {
            "step": scan,
            "lines": lines,
            "written": written,
            "scan_pkts_per_s": (self.probes + written, scan["wall_s"]),
            "replies_delivered_frac": written / self.expected_total,
            "replies_lost_frac": missing / self.expected_total,
            "pace_frac": pace,
        }


# The per-layer metrics and their units, in report order.  layer_metrics()
# computes all but trace.overhead_frac, which compares traced and untraced
# iterations and is computed by the run.
PER_LAYER = {
    "target_gen.gen_s": "s",
    "target_gen.targets": "count",
    "cli.gen_self_s": "s",
    "cli.scan_self_s": "s",
    "cli.analyze_self_s": "s",
    "probe_engine.build_echo_request_us": "us",
    "probe_engine.build_echo_request_calls": "count",
    "probe_engine.classify_icmp_us": "us",
    "probe_engine.to_json_us": "us",
    "probe_engine.from_json_us": "us",
    "probe_engine.send_wait_us": "us",
    "probe_engine.recv_idle_s": "s",
    "probe_engine.rx_backlog_max": "count",
    "probe_engine.authenticated_frac": "frac",
    "netsim.inject_us_p50": "us",
    "netsim.inject_us_p99": "us",
    "netsim.inject_calls": "count",
    "netsim.events_per_probe": "count",
    "netsim.emissions_per_probe": "count",
    "netsim.budget_hits": "count",
    "netsim.load_topology_s": "s",
    "netsim.sim_init_s": "s",
    "analysis.match_replies_s": "s",
    "analysis.alias_filter_s": "s",
    "analysis.stability_mapping_s": "s",
    "analysis.summarize_scan_s": "s",
    "analysis.detect_loops_s": "s",
    "trace.overhead_frac": "frac",
}


def layer_metrics(gen: dict, scan: dict, analyses: list[dict]) -> dict:
    """Per-layer figures of one traced iteration from the step tracers."""

    def span(trace, name, key="total_s"):
        return trace["spans"].get(name, {}).get(key, 0 if key == "calls" else 0.0)

    def per_call_us(traces, name, key="total_s"):
        calls = sum(span(t, name, "calls") for t in traces)
        return 1e6 * sum(span(t, name, key) for t in traces) / calls if calls else 0.0

    counts = scan["counts"]
    injects = scan["inject_samples_s"]
    calls = len(injects)
    cuts = statistics.quantiles(injects, n=100) if calls > 1 else injects * 99
    metrics = {
        "target_gen.gen_s": span(gen, "target_gen.gen"),
        "target_gen.targets": gen["counts"].get("target_gen.targets", 0),
        "cli.gen_self_s": span(gen, "cli.main", "self_s"),
        "cli.scan_self_s": span(scan, "cli.main", "self_s"),
        "cli.analyze_self_s": sum(span(a, "cli.main", "self_s") for a in analyses),
        "probe_engine.build_echo_request_us": per_call_us([scan], "probe_engine.build_echo_request"),
        "probe_engine.build_echo_request_calls": span(scan, "probe_engine.build_echo_request", "calls"),
        "probe_engine.classify_icmp_us": per_call_us([scan], "probe_engine.classify_icmp"),
        "probe_engine.to_json_us": per_call_us([scan], "probe_engine.to_json"),
        "probe_engine.from_json_us": per_call_us(analyses, "probe_engine.from_json"),
        "probe_engine.send_wait_us": per_call_us([scan], "netsim.send", "self_s"),
        "probe_engine.recv_idle_s": counts.get("recv_idle_s", 0.0),
        "probe_engine.rx_backlog_max": counts.get("rx_backlog_max", 0),
        "probe_engine.authenticated_frac": (
            counts.get("authenticated", 0) / counts["classified"]
            if counts.get("classified") else 0.0
        ),
        "netsim.inject_us_p50": 1e6 * cuts[49] if calls else 0.0,
        "netsim.inject_us_p99": 1e6 * cuts[98] if calls else 0.0,
        "netsim.inject_calls": calls,
        "netsim.events_per_probe": counts.get("events", 0) / calls if calls else 0.0,
        "netsim.emissions_per_probe": counts.get("emissions", 0) / calls if calls else 0.0,
        "netsim.budget_hits": counts.get("budget_hits", 0),
        "netsim.load_topology_s": span(scan, "netsim.load_topology"),
        "netsim.sim_init_s": span(scan, "netsim.sim_init"),
        **{
            f"analysis.{fn}_s": sum(span(a, f"analysis.{fn}") for a in analyses)
            for fn in ("match_replies", "alias_filter", "stability_mapping",
                       "summarize_scan", "detect_loops")
        },
    }
    expected = PER_LAYER.keys() - {"trace.overhead_frac"}
    if metrics.keys() != expected:
        raise KeyError(f"layer metrics differ from PER_LAYER: {sorted(metrics.keys() ^ expected)}")
    return metrics
