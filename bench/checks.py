"""Output checks applied to every CLI step the benchmark runs.

Each check returns None when the output is right and a one-line reason when
it is not.  The analysis checks recompute their answer from the reply files
with the standard library, so they do not trust the code they check.  The
scan check compares reply files with an offline replay of the same probes
through a fresh `netsim.Simulation`, classified by `classify_icmp`.
"""

from __future__ import annotations

import ipaddress
import json
from collections import Counter, defaultdict
from pathlib import Path

from srascan import netsim, probe_engine


def read_lines(path) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


def parse_count(stdout: str) -> int:
    """Target count printed by `gen-targets --count-only`."""
    value = json.loads(stdout)
    return value["deduplicated_total"] if isinstance(value, dict) else value


class Networks:
    """A prefix list, matched by mask and set lookup per distinct length."""

    def __init__(self, lines=()):
        self._by_mask: dict[int, set[int]] = defaultdict(set)
        for line in lines:
            net = ipaddress.IPv6Network(line.strip())
            self._by_mask[int(net.netmask)].add(int(net.network_address))

    def covers(self, address: int) -> bool:
        return any((address & mask) in nets for mask, nets in self._by_mask.items())


def check_targets(lines: list[str], count: int, first: list[str] | None) -> str | None:
    if len(lines) != count:
        return f"{len(lines)} targets written, --count-only says {count}"
    if len(set(lines)) != len(lines):
        return f"{len(lines) - len(set(lines))} repeated targets"
    if first is not None and lines != first:
        return "targets differ from the first gen-targets run on the same inputs"
    return None


def replay(topology_path, targets, passes, hop_limit, secret, rate) -> list[Counter]:
    """Reply lines a loss-free scan must write, per pass.

    Mirrors `SimTransport`: one simulation for all passes, and virtual time
    advancing by 1/rate per probe.
    """
    sim = netsim.Simulation(netsim.load_topology(topology_path))
    source = probe_engine.ProbeConfig().source_address
    tick = 1.0 / rate
    clock = 0.0
    expected = []
    for scan_pass in range(passes):
        cfg = probe_engine.ProbeConfig(
            send_rate=rate, hop_limit=hop_limit, secret=secret,
            source_address=source, scan_pass=scan_pass,
        )
        lines: Counter = Counter()
        for target in targets:
            delivery = sim.inject(probe_engine.build_echo_request(target, cfg), clock)
            clock += tick
            for em in delivery.emissions:
                rec = probe_engine.classify_icmp(em.packet, secret, timestamp=em.time)
                if rec is not None:
                    lines[rec.to_json()] += 1
        expected.append(lines)
    return expected


def compare_replies(lines: list[str], expected: Counter) -> tuple[int, str | None]:
    """(replies missing from `lines`, reason if `lines` has replies it must not)."""
    got = Counter(lines)
    extra = got - expected
    if extra:
        return 0, f"{sum(extra.values())} reply records absent from the offline replay"
    return sum((expected - got).values()), None


# --- analyze ----------------------------------------------------------------------


def _matched(records, targets):
    """Records whose authenticated target was probed (the rest are unsolicited)."""
    return [r for r in records if r["embedded_target"] in targets]


def _third_party_sources(records, targets, aliased: Networks) -> set[str]:
    return {
        r["src"]
        for r in _matched(records, targets)
        if r["src"] != r["embedded_target"]
        and not aliased.covers(int(ipaddress.IPv6Address(r["src"])))
    }


def check_summarize(stdout, reply_files: dict[str, list], n_targets: int) -> str | None:
    report = json.loads(stdout)
    for path, records in reply_files.items():
        got = report[Path(path).name]
        want = {"targets_probed": n_targets, "replies_total": len(records)}
        if {k: got[k] for k in want} != want:
            return f"summarize {path}: {got} does not total {want}"
    return None


def check_visibility(stdout, scans, targets, aliased, leaf_sources) -> str | None:
    report = json.loads(stdout)
    per_scan = [_third_party_sources(recs, targets, aliased) for recs in scans]
    universe = set().union(*per_scan)
    histogram = Counter(sum(ip in scan for scan in per_scan) for ip in universe)
    always = histogram.get(len(per_scan), 0)
    want = {
        "scans": len(per_scan),
        "always": always,
        "sometimes": len(universe) - always,
        "never": 0,
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
    }
    if report != want:
        return f"visibility {report} != {want}"
    unstable = [ip for ip in leaf_sources if any(ip not in scan for scan in per_scan)]
    if unstable:
        return f"{len(unstable)} leaf routers missing from some pass"
    return None


def _answering(records, targets, aliased) -> dict[str, int]:
    """Per target, the source that answered: echo before error, then lowest."""
    best: dict[str, tuple[bool, int]] = {}
    for r in _matched(records, targets):
        source = int(ipaddress.IPv6Address(r["src"]))
        if aliased.covers(source):
            continue
        key = (r["kind"] != "echo_reply", source)
        t = r["embedded_target"]
        best[t] = min(best.get(t, key), key)
    return {t: key[1] for t, key in best.items()}


def check_stability(stdout, scans, targets, aliased, require_stable) -> str | None:
    rows = json.loads(stdout)
    first = _answering(scans[0], targets, aliased)
    n = len(targets)
    for index, recs in enumerate(scans[1:], start=1):
        cur = _answering(recs, targets, aliased)
        same = sum(1 for t, ip in cur.items() if first.get(t) == ip)
        silent = n - len(cur)
        want = {
            "scan_index": index,
            "same": same / n,
            "changed": (n - same - silent) / n,
            "no_response": silent / n,
        }
        got = rows[index - 1]
        if got["scan_index"] != index or any(
            abs(got[k] - want[k]) > 1e-12 for k in ("same", "changed", "no_response")
        ):
            return f"stability row {got} != {want}"
        if require_stable and want["changed"]:
            return f"scan {index}: {want['changed']:.3%} of targets changed router"
    return None


def check_loops(stdout, records, targets, subnet_length=48) -> str | None:
    report = json.loads(stdout)
    per_target: dict[str, Counter] = defaultdict(Counter)
    for r in _matched(records, targets):
        if r["kind"] == "time_exceeded":
            per_target[r["embedded_target"]][r["src"]] += 1
    subnets_by_router: dict[str, set] = defaultdict(set)
    worst: Counter = Counter()
    for target, sources in per_target.items():
        subnet = str(ipaddress.IPv6Network(f"{target}/{subnet_length}", strict=False))
        for source, count in sources.items():
            subnets_by_router[source].add(subnet)
            worst[source] = max(worst[source], count)
    want = {
        "looping_subnets": sorted(set().union(*subnets_by_router.values())),
        "routers": {
            ip: {"looping_subnets": len(subs), "amplification": worst[ip]}
            for ip, subs in subnets_by_router.items()
        },
    }
    if report["looping_subnets"] != want["looping_subnets"]:
        return "looping subnets differ from the reply file"
    if report["routers"] != want["routers"]:
        return "per-router loop evidence differs from the reply file"
    return None
