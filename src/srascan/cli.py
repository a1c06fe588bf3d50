"""Command line front end.

Subcommands mirror the workflow: `gen-targets` turns routing data into probe
lists, `scan` sends them (live, or against a simulated topology), `analyze`
reduces reply files to findings, `manifest-verify` re-checks a recorded run,
and `demo` copies the bundled example inputs somewhere writable.

A JSON config file (`--config`) can preload defaults for gen-targets and
scan; flags given on the command line still win.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.resources
import itertools
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import analysis, netsim, probe_engine, target_gen

CONFIG_VERSION = 1
MANIFEST_VERSION = 1
SECRET_ENV_VAR = "SRASCAN_SECRET"

_CONFIG_SECTIONS = {
    "gen-targets": {"seed", "samples_per_prefix", "max_targets", "ndjson"},
    "scan": {"rate", "hop_limit", "cooldown", "passes", "source", "interface"},
}


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _secret_digest(secret: int) -> str:
    return hashlib.sha256(secret.to_bytes(8, "big")).hexdigest()


def data_dir():
    """Directory of bundled demo inputs."""
    return importlib.resources.files("srascan") / "data"


class CliError(Exception):
    """Operational failure with a message for stderr."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


# --- config preloading ------------------------------------------------------------


def _read_json_object(path) -> dict:
    """A JSON file holding one object; any other content is a CliError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object")
    return data


def load_config(path) -> dict:
    data = _read_json_object(path)
    if data.get("version") != CONFIG_VERSION:
        raise CliError(f"{path}: unsupported config version {data.get('version')!r}")
    for section, values in data.items():
        if section == "version":
            continue
        allowed = _CONFIG_SECTIONS.get(section)
        if allowed is None:
            raise CliError(f"{path}: unknown config section {section!r}")
        if not isinstance(values, dict):
            raise CliError(f"{path}: config section {section!r} is not an object")
        unknown = set(values) - allowed
        if unknown:
            raise CliError(
                f"{path}: unknown config keys in {section!r}: {', '.join(sorted(unknown))}"
            )
    return data


# --- shared input helpers ---------------------------------------------------------


def _load(path, parse) -> list:
    """Records of a line-oriented input file, read by `target_gen.read_records`."""
    try:
        with open(path) as fh:
            return list(target_gen.read_records(fh, parse))
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _target_address(line: str) -> int:
    """A probe-list line: one address, or an NDJSON record with `address`."""
    if line.startswith("{"):
        line = json.loads(line)["address"]
    return target_gen.parse_address(line)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


# --- gen-targets ------------------------------------------------------------------


def cmd_gen_targets(args) -> int:
    if args.max_targets is not None and args.max_targets < 0:
        raise CliError("--max-targets must be >= 0")
    try:
        cfg = target_gen.GenerationConfig(
            route6_samples_per_prefix=args.samples_per_prefix,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.mode == "hitlist":
        if not args.hitlist:
            raise CliError("--mode hitlist needs --hitlist FILE")
        source = _load(args.hitlist, target_gen.parse_address)
        gen, count, plan = (
            target_gen.gen_from_hitlist, target_gen.count_hitlist, target_gen.hitlist_plan
        )
    else:
        if not args.prefixes:
            raise CliError(f"--mode {args.mode} needs --prefixes FILE")
        source = _load(args.prefixes, target_gen.parse_prefix)
        if args.mode == "route6":
            gen, count, plan = (
                functools.partial(fn, cfg=cfg)
                for fn in (target_gen.gen_route6, target_gen.count_route6, target_gen.route6_plan)
            )
        else:
            gen, count, plan = {
                "1": (target_gen.gen_stage1, target_gen.count_stage1, target_gen.stage1_plan),
                "2": (target_gen.gen_stage2, target_gen.count_stage2, target_gen.stage2_plan),
                "3": (target_gen.gen_stage3, target_gen.count_stage3, target_gen.stage3_plan),
                "all": (target_gen.gen_bgp_all, target_gen.count_bgp_all, target_gen.bgp_all_plan),
            }[args.stage]

    if args.count_only:
        counts = count(source)  # a number, or a per-stage dict for --stage all
        if args.max_targets is not None:
            if isinstance(counts, dict):
                total = counts["deduplicated_total"]
                counts["deduplicated_total"] = min(total, args.max_targets)
            else:
                counts = min(counts, args.max_targets)
        print(json.dumps(counts, indent=2))
        return 0

    # Only --ndjson needs provenance; the text path renders the bare ints.
    if args.ndjson:
        records = target_gen.walk_records(plan(source))
        lines = (json.dumps(target_gen.target_record(t)) for t in records)
    else:
        lines = map(target_gen.format_address, gen(source))
    if args.max_targets is not None:
        lines = itertools.islice(lines, args.max_targets)
    out, close = _open_out(args.output)
    try:
        # One write per block of lines rather than per line.
        while block := list(itertools.islice(lines, 4096)):
            out.write("\n".join(block) + "\n")
    finally:
        if close:
            out.close()
    return 0


# --- scan -------------------------------------------------------------------------


def _resolve_secret(args) -> int:
    raw = args.secret
    if raw is None:
        raw = os.environ.get(SECRET_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw, 0)
    except ValueError:
        raise CliError(f"secret must be an integer, got {raw!r}") from None


def _pass_path(base: str, index: int, passes: int) -> str:
    if passes == 1:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}.pass{index}{p.suffix}"))


def _manifest_entry(path, manifest) -> dict:
    """Digest of `path`, recorded relative to the manifest's directory."""
    relative = os.path.relpath(path, os.path.dirname(os.path.abspath(manifest)))
    return {"path": relative, "sha256": _sha256_file(path)}


def cmd_scan(args) -> int:
    if not (math.isfinite(args.rate) and args.rate > 0):
        raise CliError("--rate must be a finite number above 0")
    if args.passes < 1:
        raise CliError("passes must be at least 1")
    targets = _load(args.targets, _target_address)
    input_paths = [args.targets]
    if args.exclude:
        excluded = _load(args.exclude, target_gen.parse_prefix)
        input_paths.append(args.exclude)
        ranges = target_gen._IntervalSet()
        for p in excluded:
            ranges.add(p.bits, p.bits + (1 << (128 - p.length)))
        before = len(targets)
        targets = [t for t in targets if not ranges.covers(t)]
        print(f"excluded {before - len(targets)} of {before} targets", file=sys.stderr)
    secret = _resolve_secret(args)
    if args.output in (None, "-") and args.passes > 1:
        raise CliError("--passes needs -o so each pass gets its own file")

    live = args.transport == "live"
    if live:
        if not args.i_understand_live:
            raise CliError(
                "live scanning sends real packets; pass --i-understand-live "
                "after clearing the target list with the network's owner"
            )
        if not args.interface:
            raise CliError("--transport live needs --interface")
        if not args.source:
            raise CliError("--transport live needs --source ADDRESS")
    elif not args.sim_topology:
        raise CliError("--transport sim needs --sim-topology FILE")
    source = probe_engine.ProbeConfig().source_address
    if args.source:
        try:
            source = target_gen.parse_address(args.source)
        except ValueError as exc:
            raise CliError(f"--source: {exc}") from None
    # Every simulated reply is queued by the send that causes it and
    # drained before the next send, so nothing is left to wait for.
    cooldown = args.cooldown if args.cooldown is not None else (10.0 if live else 0.0)
    try:
        cfg = probe_engine.ProbeConfig(
            send_rate=args.rate,
            hop_limit=args.hop_limit,
            cooldown=cooldown,
            secret=secret,
            source_address=source,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None

    if live:
        transport = probe_engine.LiveTransport(args.interface, source, args.hop_limit)
    else:
        input_paths.append(args.sim_topology)
        try:
            topology = netsim.load_topology(args.sim_topology)
        except (ValueError, OSError, KeyError, TypeError) as exc:
            raise CliError(f"{args.sim_topology}: {exc}") from None
        transport = netsim.SimTransport(topology, tick=1.0 / args.rate)

    outputs = []
    try:
        for scan_pass in range(args.passes):
            pass_cfg = dataclasses.replace(cfg, scan_pass=scan_pass)
            path = _pass_path(args.output, scan_pass, args.passes) if args.output else None
            out, close = _open_out(path)
            sent = replies = 0
            try:
                sent = len(targets)
                for record in probe_engine.run_scan(targets, transport, pass_cfg):
                    out.write(record.to_json() + "\n")
                    replies += 1
            finally:
                if close:
                    out.close()
            if path:
                outputs.append(path)
            print(
                f"pass {scan_pass}: {sent} probes, {replies} replies",
                file=sys.stderr,
            )
    except probe_engine.TransportError as exc:
        raise CliError(f"transport failed mid-scan: {exc.__cause__}", exit_code=1) from None
    finally:
        if live:
            transport.close()

    if args.manifest:
        manifest = {
            "version": MANIFEST_VERSION,
            "tool": "srascan",
            "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "command": "scan",
            "config": {
                "transport": args.transport,
                "rate": args.rate,
                "hop_limit": args.hop_limit,
                "cooldown": cooldown,
                "passes": args.passes,
                "targets_probed": len(targets),
                "source": target_gen.format_address(source),
                "secret_sha256": _secret_digest(secret),
            },
            "inputs": [_manifest_entry(p, args.manifest) for p in input_paths],
            "outputs": [_manifest_entry(p, args.manifest) for p in outputs],
        }
        with open(args.manifest, "w") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return 0


def _manifest_entries(path) -> list[dict]:
    """The input and output entries of a manifest, each with a path and a digest."""
    manifest = _read_json_object(path)
    if manifest.get("version") != MANIFEST_VERSION:
        raise CliError(f"{path}: unsupported manifest version {manifest.get('version')!r}")
    entries = []
    for key in ("inputs", "outputs"):
        listed = manifest.get(key, [])
        if not isinstance(listed, list):
            raise CliError(f"{path}: {key!r} is not a list")
        for entry in listed:
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)
            ):
                raise CliError(f"{path}: each entry needs a 'path' and a 'sha256' string")
        entries += listed
    return entries


def cmd_manifest_verify(args) -> int:
    root = Path(args.manifest).parent
    bad = 0
    checked = 0
    for entry in _manifest_entries(args.manifest):
        path = Path(entry["path"])
        if not path.is_absolute():
            path = root / path
        checked += 1
        try:
            actual = _sha256_file(path)
        except OSError:
            print(f"missing: {entry['path']}", file=sys.stderr)
            bad += 1
            continue
        if actual != entry["sha256"]:
            print(f"digest mismatch: {entry['path']}", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    print(f"ok: {checked} files verified")
    return 0


# --- analyze ----------------------------------------------------------------------


def _matched(targets, path):
    return analysis.match_replies(targets, _load(path, probe_engine.ReplyRecord.from_json))


def _aliased(args):
    return _load(args.aliased, target_gen.parse_prefix) if args.aliased else []


def cmd_analyze(args) -> int:
    if args.action != "compare":
        if not args.replies:
            raise CliError(f"{args.action} needs --replies FILE [FILE ...]")
        if not args.targets:
            raise CliError(f"{args.action} needs --targets FILE")
    if args.action == "loops":
        if len(args.replies) != 1:
            raise CliError("loops reads exactly one reply file")
        if not 0 <= args.subnet_length <= 128:
            raise CliError("--subnet-length must be in 0..128")
        if args.min_time_exceeded < 1:
            raise CliError("--min-time-exceeded must be at least 1")
    if args.action != "compare":
        targets = _load(args.targets, _target_address)

    if args.action == "summarize":
        summaries = {}
        for path in args.replies:
            summaries[Path(path).name] = analysis.summarize_scan(_matched(targets, path))
        print(
            json.dumps(
                {name: vars(s) for name, s in summaries.items()}, indent=2
            )
        )
        if args.csv:
            analysis.write_summary_csv(summaries, args.csv)

    elif args.action == "visibility":
        per_scan = []
        aliased = _aliased(args)
        for index, path in enumerate(args.replies):
            obs = analysis.alias_filter(_matched(targets, path), aliased, index)
            per_scan.append({o.router_ip for o in obs})
        try:
            report = analysis.visibility(analysis.build_visibility_matrix(per_scan))
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(
            json.dumps(
                {
                    "scans": report.scans,
                    "always": len(report.always),
                    "sometimes": len(report.sometimes),
                    "never": len(report.never),
                    "histogram": {str(k): v for k, v in report.histogram.items()},
                },
                indent=2,
            )
        )
        if args.csv:
            analysis.write_visibility_csv(report, args.csv)

    elif args.action == "stability":
        aliased = _aliased(args)
        scans = [
            analysis.stability_mapping(_matched(targets, path), aliased)
            for path in args.replies
        ]
        try:
            rows = analysis.sra_stability(scans, baseline=args.baseline)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(json.dumps([vars(r) for r in rows], indent=2))
        if args.csv:
            analysis.write_stability_csv(rows, args.csv)

    elif args.action == "loops":
        (path,) = args.replies
        report = analysis.detect_loops(
            _matched(targets, path),
            subnet_length=args.subnet_length,
            min_time_exceeded=args.min_time_exceeded,
        )
        print(
            json.dumps(
                {
                    "looping_subnets": sorted(str(p) for p in report.looping_subnets),
                    "routers": {
                        target_gen.format_address(ip): vars(src)
                        for ip, src in report.per_router.items()
                    },
                },
                indent=2,
            )
        )
        if args.csv:
            analysis.write_loops_csv(report, args.csv)

    elif args.action == "compare":
        named = {}
        for item in args.set:
            if "=" not in item:
                raise CliError(f"--set wants NAME=FILE, got {item!r}")
            name, _, path = item.partition("=")
            named[name] = _load(path, _target_address)
        table = None
        if args.labels:
            table = target_gen.PrefixTable(_load(args.labels, target_gen.parse_label_row))
        try:
            report = analysis.compare_datasets(named, table)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(
            json.dumps(
                {
                    "sizes": report.sizes,
                    "union": report.union_size,
                    "exclusive": {
                        "+".join(k): v for k, v in report.exclusive.items()
                    },
                    "pairwise": {f"{a}&{b}": v for (a, b), v in report.pairwise.items()},
                    "by_label": report.by_label,
                },
                indent=2,
            )
        )
        if args.csv:
            analysis.write_comparison_csv(report, args.csv)
    return 0


# --- demo -------------------------------------------------------------------------


def cmd_demo(args) -> int:
    dest = Path(args.into)
    dest.mkdir(parents=True, exist_ok=True)
    copied = []
    for entry in sorted(data_dir().iterdir(), key=lambda e: e.name):
        if entry.is_file():
            (dest / entry.name).write_bytes(entry.read_bytes())
            copied.append(entry.name)
    print("\n".join(str(dest / name) for name in copied))
    return 0


# --- parser -----------------------------------------------------------------------


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srascan",
        description="Probe subnet-router anycast addresses and study what answers.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON file with defaults for the subcommands"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-targets", help="build a probe list from routing data")
    gen.add_argument("--mode", choices=("bgp", "route6", "hitlist"), required=True)
    gen.add_argument("--prefixes", metavar="FILE", help="announced prefixes, one per line")
    gen.add_argument("--hitlist", metavar="FILE", help="known addresses, one per line")
    gen.add_argument(
        "--stage",
        choices=("1", "2", "3", "all"),
        default="all",
        help="bgp mode: announced prefixes (1), /48 grid (2), /64 grid (3)",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--samples-per-prefix", type=int, default=10_000)
    gen.add_argument("--max-targets", type=int, default=None)
    gen.add_argument("--ndjson", action="store_true", help="emit records with provenance")
    gen.add_argument("--count-only", action="store_true", help="print counts, no addresses")
    gen.add_argument("-o", "--output", metavar="FILE", default=None)
    gen.set_defaults(func=cmd_gen_targets)

    scan = sub.add_parser("scan", help="send one echo request per target")
    scan.add_argument("--targets", metavar="FILE", required=True)
    scan.add_argument("--transport", choices=("live", "sim"), default="sim")
    scan.add_argument("--sim-topology", metavar="FILE")
    scan.add_argument("--interface", help="live mode: interface to sniff replies on")
    scan.add_argument("--rate", type=float, default=200_000.0, help="probes per second")
    scan.add_argument("--hop-limit", type=int, default=64)
    scan.add_argument(
        "--cooldown",
        type=float,
        default=None,
        help="seconds to keep listening after the last probe (10 live, 0 sim)",
    )
    scan.add_argument(
        "--secret",
        default=None,
        help=f"payload authentication key (integer; default ${SECRET_ENV_VAR} or 0)",
    )
    scan.add_argument("--source", metavar="ADDRESS", default=None)
    scan.add_argument("--passes", type=int, default=1, help="repeat the scan N times")
    scan.add_argument(
        "--exclude", metavar="FILE", help="prefixes to drop from the target list"
    )
    scan.add_argument("--i-understand-live", action="store_true")
    scan.add_argument("-o", "--output", metavar="FILE", default=None)
    scan.add_argument("--manifest", metavar="FILE", help="record digests of the run")
    scan.set_defaults(func=cmd_scan)

    an = sub.add_parser("analyze", help="reduce reply files to findings")
    an.add_argument(
        "action",
        choices=("summarize", "visibility", "stability", "loops", "compare"),
    )
    an.add_argument("--replies", metavar="FILE", nargs="*", default=[])
    an.add_argument("--targets", metavar="FILE")
    an.add_argument("--aliased", metavar="FILE", help="known aliased prefixes")
    an.add_argument("--baseline", choices=("first", "previous"), default="first")
    an.add_argument("--subnet-length", type=int, default=48)
    an.add_argument("--min-time-exceeded", type=int, default=1)
    an.add_argument("--set", metavar="NAME=FILE", action="append", default=[])
    an.add_argument("--labels", metavar="FILE", help="prefix,label rows for compare")
    an.add_argument("--csv", metavar="FILE")
    an.set_defaults(func=cmd_analyze)

    verify = sub.add_parser("manifest-verify", help="re-check a recorded run")
    verify.add_argument("manifest", metavar="MANIFEST")
    verify.set_defaults(func=cmd_manifest_verify)

    demo = sub.add_parser("demo", help="copy the bundled example inputs")
    demo.add_argument(
        "--into", metavar="DIR", default=".", help="directory to copy into (default: .)"
    )
    demo.set_defaults(func=cmd_demo)

    if config:
        for name, subparser in (("gen-targets", gen), ("scan", scan)):
            if name in config:
                subparser.set_defaults(**config[name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        config = load_config(known.config) if known.config else None
        args = build_parser(config).parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
