"""Command line front end.

Subcommands mirror the workflow: `gen-targets` turns routing data into probe
lists, `scan` sends them (live, or against a simulated topology), `analyze`
reduces reply files to findings, `manifest-verify` re-checks a recorded run,
and `demo` copies the bundled example inputs somewhere writable.

A JSON config file (`--config`) can preload defaults for gen-targets and
scan; each value is checked like its flag, and flags on the command line
still win.  `analyze` renders the analysis results as JSON and CSV reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

from . import probe_engine, target_gen

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
    import importlib.resources

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
    except (ValueError, RecursionError) as exc:
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


def _config_value(path, section: str, action, value):
    """`value` as its flag would read it: a JSON bool for a switch, else the
    text of a string or number through the flag's `type=`."""
    try:
        if action.nargs == 0:
            if isinstance(value, bool):
                return value
        elif isinstance(value, (str, int, float)) and not isinstance(value, bool):
            return (action.type or str)(str(value))
    except ValueError:
        pass
    want = "true or false" if action.nargs == 0 else getattr(action.type, "__name__", "str")
    raise CliError(f"{path}: {section}.{action.dest}: expected {want}, got {value!r}")


# --- shared input helpers ---------------------------------------------------------


def _load(path, read, *args, into=list):
    """`read(lines, *args)` over the lines of a line-oriented input file,
    collected by `into`.

    `read` is `target_gen.read_addresses` for a probe list,
    `target_gen.read_hitlist` for a hitlist, `target_gen.read_prefixes` for a
    prefix file, `probe_engine.read_replies` for a reply file, or
    `target_gen.read_records` with the parser of one line.  The lines come
    from `target_gen.text_lines`, a decoded chunk at a time.
    """
    try:
        with open(path) as fh:
            return into(read(target_gen.text_lines(fh), *args))
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


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
        source = _load(args.hitlist, target_gen.read_hitlist)
        plan = target_gen.hitlist_plan(source)
    else:
        if not args.prefixes:
            raise CliError(f"--mode {args.mode} needs --prefixes FILE")
        source = _load(args.prefixes, target_gen.read_prefixes)
        if args.mode == "route6":
            plan = target_gen.route6_plan(source, cfg)
        elif args.stage == "all" and args.count_only:
            # The per-stage counts, each stage planned once, then the total
            # of the plan as --max-targets cuts it.
            counts = target_gen.count_bgp_all(source)
            if args.max_targets is not None:
                counts["deduplicated_total"] = min(counts["deduplicated_total"], args.max_targets)
            print(json.dumps(counts, indent=2))
            return 0
        else:
            plan = {
                "1": target_gen.stage1_plan,
                "2": target_gen.stage2_plan,
                "3": target_gen.stage3_plan,
                "all": target_gen.bgp_all_plan,
            }[args.stage](source)
    if args.max_targets is not None:
        plan = target_gen.take(plan, args.max_targets)

    if args.count_only:
        print(target_gen.plan_size(plan))
        return 0

    blocks = (target_gen.plan_ndjson if args.ndjson else target_gen.plan_text)(plan)
    out, close = _open_out(args.output)
    try:
        out.writelines(blocks)
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
    if not 1 <= args.passes <= 1 << 16:  # the pass index is the 16-bit ICMP identifier
        raise CliError("--passes must be in 1..65536")
    targets = _load(args.targets, target_gen.read_addresses)
    input_paths = [args.targets]
    if args.exclude:
        excluded = _load(args.exclude, target_gen.read_prefixes)
        input_paths.append(args.exclude)
        before = len(targets)
        targets = target_gen.exclude(targets, excluded)
        print(f"excluded {before - len(targets)} of {before} targets", file=sys.stderr)
    secret = _resolve_secret(args)
    if args.output in (None, "-"):
        if args.passes > 1:
            raise CliError("--passes needs -o so each pass gets its own file")
        if args.manifest:
            raise CliError("--manifest needs -o FILE: it records a digest of each reply file")

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
        from . import netsim  # only a simulated scan reads it

        input_paths.append(args.sim_topology)
        try:
            topology = netsim.load_topology(args.sim_topology)
        except (ValueError, OSError, KeyError, TypeError, RecursionError) as exc:
            raise CliError(f"{args.sim_topology}: {exc}") from None
        # A simulated scan runs on the transport's clock and never sleeps.
        transport = netsim.SimTransport(topology, tick=1.0 / args.rate)

    outputs = []
    try:
        for scan_pass in range(args.passes):
            pass_cfg = probe_engine.ProbeConfig(**{**cfg._asdict(), "scan_pass": scan_pass})
            path = _pass_path(args.output, scan_pass, args.passes) if args.output else None
            out, close = _open_out(path)
            replies = 0
            try:
                for record in probe_engine.run_scan(targets, transport, pass_cfg):
                    out.write(record.to_json() + "\n")
                    replies += 1
            finally:
                if close:
                    out.close()
            if path:
                outputs.append(path)
            print(f"pass {scan_pass}: {len(targets)} probes, {replies} replies", file=sys.stderr)
    except probe_engine.TransportError as exc:
        raise CliError(f"transport failed mid-scan: {exc.__cause__}", exit_code=1) from None
    finally:
        if live:
            transport.close()

    if args.manifest:
        from datetime import datetime, timezone

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
    records = _load(path, probe_engine.read_replies)
    return analysis.match_replies(targets, records)


def _aliased(args):
    if not args.aliased:
        return []
    return _load(args.aliased, target_gen.read_prefixes)


# Each action returns its JSON report, its CSV header and its CSV rows.


def _summarize(args, targets):
    names = [Path(path).name for path in args.replies]
    shared = [path for path, name in zip(args.replies, names) if names.count(name) > 1]
    if shared:
        raise CliError(
            f"summarize keys its report by file name, which {' and '.join(shared)} share"
        )
    report = {
        name: vars(analysis.summarize_scan(_matched(targets, path)))
        for name, path in zip(names, args.replies)
    }
    header = ["scan", *(f.name for f in dataclasses.fields(analysis.ScanSummary))]
    return report, header, ([name, *s.values()] for name, s in report.items())


def _visibility(args, targets):
    aliased = _aliased(args)
    per_scan = [
        {o.router_ip for o in analysis.alias_filter(_matched(targets, path), aliased, index)}
        for index, path in enumerate(args.replies)
    ]
    report = analysis.visibility(analysis.build_visibility_matrix(per_scan))
    summary = {
        "scans": report.scans,
        "always": len(report.always),
        "sometimes": len(report.sometimes),
        "never": len(report.never),
        "histogram": report.histogram,  # json writes the int keys as text
    }
    return summary, ["scans_present", "routers"], report.histogram.items()


def _stability(args, targets):
    aliased = _aliased(args)
    scans = [
        analysis.stability_mapping(_matched(targets, path), aliased) for path in args.replies
    ]
    rows = [vars(r) for r in analysis.sra_stability(scans, baseline=args.baseline)]
    header = [f.name for f in dataclasses.fields(analysis.StabilityRow)]
    return rows, header, (r.values() for r in rows)


def _loops(args, targets):
    if len(args.replies) != 1:
        raise CliError("loops reads exactly one reply file")
    if not 0 <= args.subnet_length <= 128:
        raise CliError("--subnet-length must be in 0..128")
    if args.min_time_exceeded < 1:
        raise CliError("--min-time-exceeded must be at least 1")
    (path,) = args.replies
    report = analysis.detect_loops(
        _matched(targets, path),
        subnet_length=args.subnet_length,
        min_time_exceeded=args.min_time_exceeded,
    )
    routers = {
        target_gen.format_address(ip): vars(src) for ip, src in report.per_router.items()
    }
    summary = {
        "looping_subnets": sorted(str(p) for p in report.looping_subnets),
        "routers": routers,
    }
    header = ["router", *(f.name for f in dataclasses.fields(analysis.LoopSource))]
    return summary, header, ([ip, *src.values()] for ip, src in routers.items())


def _compare(args, targets):
    paths = {}
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set wants NAME=FILE, got {item!r}")
        name, _, path = item.partition("=")
        if name in paths:
            raise CliError(f"--set names {name!r} twice")
        paths[name] = path
    named = {name: _load(path, target_gen.read_addresses) for name, path in paths.items()}
    table = None
    if args.labels:
        rows = _load(args.labels, target_gen.read_records, target_gen.parse_label_row)
        table = target_gen.PrefixTable(rows)
    report = analysis.compare_datasets(named, table)
    exclusive = {"+".join(k): v for k, v in report.exclusive.items()}
    summary = {
        "sizes": report.sizes,
        "union": report.union_size,
        "exclusive": exclusive,
        "pairwise": {f"{a}&{b}": v for (a, b), v in report.pairwise.items()},
        "by_label": report.by_label,
    }
    return summary, ["member_of", "addresses"], exclusive.items()


_ANALYSES = {
    "summarize": _summarize,
    "visibility": _visibility,
    "stability": _stability,
    "loops": _loops,
    "compare": _compare,
}


def cmd_analyze(args) -> int:
    # Only this command reads analysis and dataclasses, so only it imports
    # them; the report builders above find them among the module's globals.
    global analysis, dataclasses
    import dataclasses

    from . import analysis

    targets = None
    if args.action != "compare":
        if not args.replies:
            raise CliError(f"{args.action} needs --replies FILE [FILE ...]")
        if not args.targets:
            raise CliError(f"{args.action} needs --targets FILE")
        # One set for every reply file: match_replies keeps a frozenset uncopied.
        targets = _load(args.targets, target_gen.read_addresses, into=frozenset)

    try:
        report, header, rows = _ANALYSES[args.action](args, targets)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(json.dumps(report, indent=2))
    if args.csv:
        import csv  # only --csv writes CSV

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
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


def _gen_targets_args(gen: argparse.ArgumentParser) -> None:
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


def _scan_args(scan: argparse.ArgumentParser) -> None:
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
    scan.add_argument("--passes", type=int, default=1, help="repeat the scan N times (1..65536)")
    scan.add_argument(
        "--exclude", metavar="FILE", help="prefixes to drop from the target list"
    )
    scan.add_argument("--i-understand-live", action="store_true")
    scan.add_argument("-o", "--output", metavar="FILE", default=None)
    scan.add_argument("--manifest", metavar="FILE", help="record digests of the run")
    scan.set_defaults(func=cmd_scan)


def _analyze_args(an: argparse.ArgumentParser) -> None:
    an.add_argument("action", choices=_ANALYSES)
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


def _manifest_verify_args(verify: argparse.ArgumentParser) -> None:
    verify.add_argument("manifest", metavar="MANIFEST")
    verify.set_defaults(func=cmd_manifest_verify)


def _demo_args(demo: argparse.ArgumentParser) -> None:
    demo.add_argument(
        "--into", metavar="DIR", default=".", help="directory to copy into (default: .)"
    )
    demo.set_defaults(func=cmd_demo)


_SUBCOMMANDS = {
    "gen-targets": ("build a probe list from routing data", _gen_targets_args),
    "scan": ("send one echo request per target", _scan_args),
    "analyze": ("reduce reply files to findings", _analyze_args),
    "manifest-verify": ("re-check a recorded run", _manifest_verify_args),
    "demo": ("copy the bundled example inputs", _demo_args),
}


class _Unsure(Exception):
    """A parser built for one subcommand met what only the full parser answers."""


class _OneCommandParser(argparse.ArgumentParser):
    """Refuses, instead of printing help or an error whose usage would list
    only the subcommands it was built with."""

    def error(self, message):
        raise _Unsure

    def print_help(self, file=None):
        raise _Unsure


def build_parser(config_path=None, command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given `command`, a parser of that
    one (and of the two that `--config` presets) which raises _Unsure on any
    argv it cannot parse."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="srascan",
        description="Probe subnet-router anycast addresses and study what answers.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON file with defaults for the subcommands"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = {}
    for name, (help_text, add_args) in _SUBCOMMANDS.items():
        if command is None or name == command or (config_path and name in _CONFIG_SECTIONS):
            built[name] = sub.add_parser(name, help=help_text)
            add_args(built[name])

    if config_path:
        config = load_config(config_path)
        for name in _CONFIG_SECTIONS:
            actions = {a.dest: a for a in built[name]._actions}
            built[name].set_defaults(**{
                key: _config_value(config_path, name, actions[key], value)
                for key, value in config.get(name, {}).items()
            })
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser(config).parse_args(argv)`, building only the subcommand
    that argv names when that parser can parse argv whole."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if rest and rest[0] in _SUBCOMMANDS:
        try:
            return build_parser(known.config, rest[0]).parse_args(argv)
        except _Unsure:
            pass  # the full parser prints the help or the error
    return build_parser(known.config).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
