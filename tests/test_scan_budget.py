"""Work budget of a simulated scan: the Python calls that an in-process
`scan --transport sim` makes per extra probe, silent and answered.

Each case scans a short and a long target list on one topology and bounds
the growth in calls between them, so the fixed cost of loading the
topology and parsing the command line cancels out.  The bounds are the
counts the scan made when they were set, rounded up to the next 0.1: a
change that adds one Python call per probe, such as a wrapper around
`ProbeTemplate.build`, exceeds them.
"""

import contextlib
import io
import random

import pytest

from call_count import python_calls
from srascan import cli, topologies
from srascan.addresses import format_address

GRID = 0x2001_0DB8_0002 << 80  # 2001:db8:2::/48 holds the fanout's active /64s


def _silent_case():
    """The grid /48's /64s that no leaf answers for: the gateway has no route
    to them, and its token bucket lets through only its first few errors."""
    topology, meta = topologies.build_gateway_fanout(
        n_inactive=16, m_active=40, seed=1, aliased=4
    )
    active = {p.bits for p in meta["active_prefixes"]}
    targets = [GRID | idx << 64 for idx in range(1, 1 << 16) if GRID | idx << 64 not in active]
    return topology, targets, (2000, 6000)


def _answered_case():
    """The fanout workload's stage-1 targets: the SRA of each active,
    inactive and aliased /64, in seeded order; the active ones answer."""
    topology, meta = topologies.build_gateway_fanout(
        n_inactive=300, m_active=500, seed=1, aliased=50
    )
    targets = [
        p.bits
        for key in ("active_prefixes", "inactive_prefixes", "aliased_prefixes")
        for p in meta[key]
    ]
    random.Random(1).shuffle(targets)
    return topology, targets, (300, 850)


# case: (inputs, bound on calls per extra probe)
CASES = {
    "silent": (_silent_case, 9.1),
    "answered": (_answered_case, 21.0),
}


def scan_calls(work, topology_path, targets) -> int:
    """The Python calls of one in-process simulated scan of `targets`."""
    (work / "targets.txt").write_text("".join(f"{format_address(t)}\n" for t in targets))
    argv = [
        "scan", "--targets", str(work / "targets.txt"), "--transport", "sim",
        "--sim-topology", str(topology_path), "--rate", "10000000", "--hop-limit", "64",
        "--secret", "1", "-o", str(work / "replies.ndjson"),
    ]
    with contextlib.redirect_stderr(io.StringIO()):
        return python_calls(lambda: cli.main(argv))


@pytest.mark.parametrize("case", list(CASES))
def test_a_scan_stays_within_its_calls_per_probe(tmp_path, case):
    make, bound = CASES[case]
    topology, targets, (short, long) = make()
    path = tmp_path / "topology.json"
    topologies.save_topology(topology, path)
    scan_calls(tmp_path, path, targets[:short])  # the first scan imports what a scan needs
    calls = {n: scan_calls(tmp_path, path, targets[:n]) for n in (short, long)}
    per_probe = (calls[long] - calls[short]) / (long - short)
    assert per_probe <= bound, (calls, per_probe)
