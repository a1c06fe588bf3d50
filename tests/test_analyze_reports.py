"""The `analyze` reports through `cli.main`: against the benchmark's
independent recomputation on drawn inputs, and within a budget of Python
calls per reply line.

`bench/checks.py` recomputes each report from the reply file's JSON with
the standard library; it is loaded the way tests/test_bench_trace.py loads
it, without writing bytecode into bench/.
"""

import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from call_count import python_calls
from srascan import cli
from srascan.addresses import format_address, parse_address
from srascan.analysis import enclosing_prefix
from srascan.probe_engine import ReplyKind, ReplyRecord

ROOT = Path(__file__).resolve().parents[1]

_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    _spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(checks)
finally:
    sys.dont_write_bytecode = _write_bytecode

TYPE_BY_KIND = {
    ReplyKind.ECHO_REPLY: 129,
    ReplyKind.DEST_UNREACHABLE: 1,
    ReplyKind.PACKET_TOO_BIG: 2,
    ReplyKind.TIME_EXCEEDED: 3,
    ReplyKind.PARAM_PROBLEM: 4,
    ReplyKind.OTHER: 200,
}


def analyze(*argv) -> str:
    """The standard output of `srascan analyze ARGV...`, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", *argv]) == 0, argv
    return out.getvalue()


def write_lines(path: Path, lines) -> str:
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


# --- against bench/checks.py ------------------------------------------------------

# Addresses in four /48s, eight /64s each, with three host bits: targets,
# routers and aliased prefixes draw from the same few addresses, so a source
# is often a probed target, or inside an aliased prefix.
BASE = parse_address("2001:db8::")
_ADDRESS = st.builds(
    lambda net, sub, host: BASE | net << 80 | sub << 64 | host,
    st.integers(0, 3), st.integers(0, 7), st.integers(0, 7),
)
_RECORD = st.tuples(
    st.sampled_from(list(TYPE_BY_KIND)),
    # the source: any address, or the record's own embedded target
    st.one_of(_ADDRESS, st.just("self")),
    # the embedded target: a probed target (by index), any address, or null
    st.one_of(st.integers(0, 63), _ADDRESS, st.just("null")),
)


@settings(max_examples=40, deadline=None)
@given(
    targets=st.lists(_ADDRESS, min_size=1, max_size=12),
    files=st.lists(st.lists(_RECORD, max_size=25), min_size=2, max_size=3),
    aliased=st.lists(
        st.tuples(_ADDRESS, st.sampled_from([48, 61, 64, 126, 128])), max_size=3
    ),
)
# Two scans that show no router: `visibility` once refused them as fewer than two.
@example(targets=[BASE], files=[[], []], aliased=[])
# An Echo Reply source answers for its target over a lower error source.
@example(
    targets=[BASE | 1 << 64],
    files=[[(ReplyKind.ECHO_REPLY, BASE | 2, 0), (ReplyKind.DEST_UNREACHABLE, BASE | 1, 0)],
           [(ReplyKind.ECHO_REPLY, BASE | 2, 0)]],
    aliased=[],
)
def test_the_reports_match_the_benchmark_recomputation(targets, files, aliased):
    """Each report, through `cli.main`, equals the recomputation of
    bench/checks.py: self-sourced, aliased, unprobed and null-target replies
    included, and the target list may repeat a line."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        target_path = write_lines(work / "targets.txt", map(format_address, targets))
        prefixes = sorted({str(enclosing_prefix(a, length)) for a, length in aliased})
        scans, reply_paths = [], []
        for index, drawn in enumerate(files):
            lines = []
            for kind, source, embedded in drawn:
                if embedded == "null":
                    embedded = None
                elif embedded < 64:
                    embedded = targets[embedded % len(targets)]
                if source == "self":
                    source = BASE if embedded is None else embedded
                lines.append(
                    ReplyRecord(kind, TYPE_BY_KIND[kind], 0, source, embedded, 64, 0.0).to_json()
                )
            reply_paths.append(write_lines(work / f"r{index}.ndjson", lines))
            scans.append([json.loads(line) for line in lines])
        options = ["--targets", target_path]
        if prefixes:
            options += ["--aliased", write_lines(work / "aliased.txt", prefixes)]
        probed = {format_address(t) for t in targets}
        networks = checks.Networks(prefixes)

        out = analyze("summarize", "--replies", *reply_paths, *options)
        records = dict(zip(reply_paths, scans))
        assert checks.check_summarize(out, records, len(probed)) is None, out
        out = analyze("visibility", "--replies", *reply_paths, *options)
        assert checks.check_visibility(out, scans, probed, networks, []) is None
        out = analyze("stability", "--replies", *reply_paths, *options)
        assert checks.check_stability(out, scans, probed, networks, False) is None
        out = analyze("loops", "--replies", reply_paths[0], *options)
        assert checks.check_loops(out, scans[0], probed) is None, out


# --- work per reply line ----------------------------------------------------------

KINDS = [ReplyKind.ECHO_REPLY, ReplyKind.DEST_UNREACHABLE, ReplyKind.TIME_EXCEEDED]
POOL = [parse_address("2001:db8:ff00::") | j for j in range(1, 51)]


@pytest.fixture(scope="module")
def sized_inputs(tmp_path_factory):
    """Per size n: a list of n targets, two reply files of n lines, one reply
    per target from a pool of 50 routers, and an aliased prefix over 15 of
    them.  The targets lie in four /48s."""
    work = tmp_path_factory.mktemp("budget")
    write_lines(work / "aliased.txt", ["2001:db8:ff00::/124"])
    for n in (2000, 6000):
        targets = [BASE | (i % 4) << 80 | i << 64 for i in range(n)]
        write_lines(work / f"t{n}.txt", map(format_address, targets))
        for k in (0, 1):
            write_lines(work / f"r{n}.{k}.ndjson", (
                ReplyRecord(
                    KINDS[(i + k) % 3], TYPE_BY_KIND[KINDS[(i + k) % 3]], 0,
                    POOL[(7 * i + k) % 50], t, 60, 0.5,
                ).to_json()
                for i, t in enumerate(targets)
            ))
    analyze("summarize", "--replies", str(work / "r2000.0.ndjson"),
            "--targets", str(work / "t2000.txt"))  # the first analyze imports analysis
    return work


@pytest.mark.parametrize("aliased", [False, True], ids=["plain", "aliased"])
@pytest.mark.parametrize("action", ["summarize", "visibility", "stability", "loops"])
def test_a_report_makes_no_python_call_per_reply_line(sized_inputs, action, aliased):
    """Each report reads its reply files in one pass that runs no Python
    frame per line: between reply files of 2,000 and 6,000 lines the calls
    grow by at most 0.1 per extra reply line.  The line reader resumes
    about once per 8 KiB chunk, and `covers` runs once per distinct source."""
    work = sized_inputs
    files = 1 if action == "loops" else 2
    calls = {}
    for n in (2000, 6000):
        argv = [action, "--replies", *(str(work / f"r{n}.{k}.ndjson") for k in range(files)),
                "--targets", str(work / f"t{n}.txt")]
        if aliased:
            argv += ["--aliased", str(work / "aliased.txt")]
        calls[n] = python_calls(lambda: analyze(*argv))
    per_line = (calls[6000] - calls[2000]) / (4000 * files)
    assert per_line <= 0.1, (calls, per_line)
