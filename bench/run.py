"""End-to-end benchmark of the srascan pipeline, with a traced variant.

    python3 bench/run.py --workload {grid48,fanout,loop,all} --seed N \
        --seconds S --trace {0,1}

One run builds the workload's inputs from the seed, then repeats the
pipeline `gen-targets` -> `scan --transport sim` -> `analyze ...` for about S
seconds, each CLI command in a fresh process (bench/step.py).  Every command's
output is checked (bench/checks.py).  Each metric summarises the run's
samples (see END_TO_END); the table before the last line gives the value
and the samples' count, quartiles and extremes.  The last line is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics from
bench/tracer.py with --trace 1.  A traced run alternates traced and untraced iterations, and the
gap between their scan rates is reported as trace.overhead_frac.

`--workload all` runs the three workloads one after another, each in its own
process, and prints every table.  BENCHMARK.json gates grid48 and fanout;
see bench/README.md for why loop is not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_ITERATIONS = 4


def rate(pairs: list[tuple[float, float]]) -> float:
    """Total work over total seconds: a time-weighted mean of the samples."""
    return sum(work for work, _ in pairs) / sum(seconds for _, seconds in pairs)


# Each end-to-end metric with its unit and the statistic that turns a run's
# samples into its value.  On a shared 2-vCPU VM the CPU's speed alternates
# between fast and slow phases of a few seconds, so single samples of a rate
# fall into two groups and their median jumps between them from run to run.
# A rate is therefore the run's total work over its total time, which
# averages over every phase the run saw and does not depend on how many
# samples the run took.  The other metrics take the median of their samples.
END_TO_END = {
    "scan_pkts_per_s": ("1/s", rate),
    "gen_targets_per_s": ("1/s", rate),
    "analyze_lines_per_s": ("1/s", rate),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
    "replies_delivered_frac": ("frac", statistics.median),
}
# Reported in the table only: zero on a healthy workload, so they cannot be
# bounded as a share of their median.  `failed`/`attempted` carry the second.
REPORTED_ONLY = {"replies_lost_frac": "frac", "steps_failed_frac": "frac", "pace_frac": "frac"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(workload: str, table: dict[str, tuple[str, list]], values: dict[str, float]) -> None:
    """One line per metric: its value, and the count and spread of its samples."""
    print(f"# {workload}: metric unit value n p25 median p75 min max (of the samples)")
    for name, (unit, samples) in table.items():
        if samples:
            points = [w / t for w, t in samples] if isinstance(samples[0], tuple) else samples
            q1, q2, q3 = quartiles(points)
            value = values.get(name, q2)
            print(f"{workload} {name} {unit} value={value:.6g} n={len(points)} p25={q1:.6g} "
                  f"median={q2:.6g} p75={q3:.6g} min={min(points):.6g} max={max(points):.6g}")


def measure(workload, args, work: Path) -> dict:
    from pipeline import PER_LAYER, Pipeline, Runner

    runner = Runner(work)
    pipeline = Pipeline(workload, args.seed, work, runner)
    samples: list[dict] = []
    start = perf_counter()
    while pipeline.ready:
        traced = bool(args.trace) and len(samples) % 2 == 1
        sample = pipeline.iteration(traced)
        if sample is None:
            break
        samples.append(sample)
        elapsed = perf_counter() - start
        if len(samples) >= MIN_ITERATIONS and elapsed * (len(samples) + 1) / len(samples) > args.seconds:
            break

    plain = [s for s in samples if "layers" not in s]
    table: dict[str, tuple[str, list]] = {}
    if args.trace:
        traced = [s["layers"] for s in samples if "layers" in s]
        for name, unit in PER_LAYER.items():
            if name != "trace.overhead_frac":
                table[name] = (unit, [t[name] for t in traced])
        if traced and plain:
            untraced_rate = rate([v for s in plain for v in s["scan_pkts_per_s"]])
            traced_rate = rate([v for s in samples if "layers" in s for v in s["scan_pkts_per_s"]])
            table["trace.overhead_frac"] = ("frac", [1.0 - traced_rate / untraced_rate])
        chosen = {name: (unit, statistics.median) for name, unit in PER_LAYER.items()}
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        for name, unit in {**units, **REPORTED_ONLY}.items():
            table[name] = (unit, [v for s in plain for v in s.get(name, [])])
        table["steps_failed_frac"] = ("frac", [runner.failed / max(runner.attempted, 1)])
        chosen = END_TO_END
    values = {
        name: stat(table[name][1]) if table.get(name, (None, []))[1] else 0.0
        for name, (_, stat) in chosen.items()
    }
    report(workload.name, table, values)
    for error in runner.errors:
        print(f"{workload.name} FAILED {error}")
    return {
        "correct": runner.failed == 0 and bool(samples),
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in chosen.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180,
        )
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            print(proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(out[:-1]))
        result = json.loads(out[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid48", "fanout", "loop", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "srascan" / "cli.py").is_file():
        print(f"error: no srascan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        result = measure(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
