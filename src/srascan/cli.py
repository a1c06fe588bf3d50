"""Command line front end.

Subcommands mirror the workflow: `gen-targets` turns routing data into probe
lists, `scan` sends them (live, or against a simulated topology), `analyze`
reduces reply files to findings, `manifest-verify` re-checks a recorded run,
and `demo` copies the bundled example inputs somewhere writable.

A JSON config file (`--config`) can preload defaults for gen-targets and
scan; each value is checked like its flag, and flags on the command line
still win.  `analyze` renders the reports of `analysis.REPORTS` as JSON and
CSV.

Each process runs one command, and where no bytecode is cached it compiles
every module it imports, so a command imports what only it uses when it
runs: `gen-targets` imports `target_gen`, `scan` `probe_engine` (and
`netsim` for a simulated scan), `analyze` `analysis`, and the manifest code
`hashlib`.  Every command reads its inputs through `addresses`.

Every flag is declared once, in the option table `_SUBCOMMANDS`.  A
well-formed command line (the subcommand first, exact flag names, each
value taken as given) is read by that table alone (`_parse_exact`), so
such a command loads no argparse, and with it no gettext or locale.  Any
other command line (help, `--config`, an abbreviation, `--flag=value`, a
bad value) goes to argparse, built from the same table, which prints what
it always printed.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import addresses

CONFIG_VERSION = 1
MANIFEST_VERSION = 1
SECRET_ENV_VAR = "SRASCAN_SECRET"

_CONFIG_SECTIONS = {
    "gen-targets": {"seed", "samples_per_prefix", "max_targets", "ndjson"},
    "scan": {"rate", "hop_limit", "cooldown", "passes", "source", "interface"},
}


def _sha256_file(path) -> str:
    import hashlib  # only the manifest code digests files

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _secret_digest(secret: int) -> str:
    import hashlib

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

    `read` is `addresses.read_addresses` for a probe list,
    `addresses.read_hitlist` for a hitlist, `addresses.read_prefixes` for a
    prefix file, `probe_engine.read_replies` for a reply file, or
    `addresses.read_records` with the parser of one line.  The lines come
    from `addresses.text_lines`, a decoded chunk at a time.
    """
    try:
        with open(path) as fh:
            return into(read(addresses.text_lines(fh), *args))
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
    from . import target_gen

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
        source = _load(args.hitlist, addresses.read_hitlist)
        plan = target_gen.hitlist_plan(source)
    else:
        if not args.prefixes:
            raise CliError(f"--mode {args.mode} needs --prefixes FILE")
        source = _load(args.prefixes, addresses.read_prefixes)
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
    from . import probe_engine

    if not (math.isfinite(args.rate) and args.rate > 0):
        raise CliError("--rate must be a finite number above 0")
    if not 1 <= args.passes <= 1 << 16:  # the pass index is the 16-bit ICMP identifier
        raise CliError("--passes must be in 1..65536")
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
            source = addresses.parse_address(args.source)
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

    # Every flag is checked above, before any input is read.
    targets = _load(args.targets, addresses.read_addresses)
    input_paths = [args.targets]
    if args.exclude:
        excluded = _load(args.exclude, addresses.read_prefixes)
        input_paths.append(args.exclude)
        before = len(targets)
        targets = addresses.exclude(targets, excluded)
        print(f"excluded {before - len(targets)} of {before} targets", file=sys.stderr)

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
                "source": addresses.format_address(source),
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


def cmd_analyze(args) -> int:
    from . import analysis

    targets = None
    if args.action != "compare":
        if not args.replies:
            raise CliError(f"{args.action} needs --replies FILE [FILE ...]")
        if not args.targets:
            raise CliError(f"{args.action} needs --targets FILE")
        # One set for every reply file: match_replies keeps a frozenset uncopied.
        targets = _load(args.targets, addresses.read_addresses, into=frozenset)

    try:
        report, header, rows = analysis.REPORTS[args.action](args, targets, _load)
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


def _report_names():
    from . import analysis  # the actions are its reports

    return analysis.REPORTS


# Each subcommand's function, help line and arguments, every flag declared
# here once.  An argument is the names and keywords that `add_argument`
# takes, in the order help lists them; a callable `choices` is called when
# the subcommand is built.  `build_parser` hands each argument to argparse
# as it stands, and `_parse_exact` reads a well-formed command line by the
# same entries, using only `type`, `choices`, `default`, `required`,
# `action` ("store_true" or "append") and `nargs` ("*").
_SUBCOMMANDS = {
    "gen-targets": (cmd_gen_targets, "build a probe list from routing data", (
        (("--mode",), dict(choices=("bgp", "route6", "hitlist"), required=True)),
        (("--prefixes",), dict(metavar="FILE", help="announced prefixes, one per line")),
        (("--hitlist",), dict(metavar="FILE", help="known addresses, one per line")),
        (("--stage",), dict(
            choices=("1", "2", "3", "all"),
            default="all",
            help="bgp mode: announced prefixes (1), /48 grid (2), /64 grid (3)",
        )),
        (("--seed",), dict(type=int, default=0)),
        (("--samples-per-prefix",), dict(type=int, default=10_000)),
        (("--max-targets",), dict(type=int, default=None)),
        (("--ndjson",), dict(action="store_true", help="emit records with provenance")),
        (("--count-only",), dict(action="store_true", help="print counts, no addresses")),
        (("-o", "--output"), dict(metavar="FILE", default=None)),
    )),
    "scan": (cmd_scan, "send one echo request per target", (
        (("--targets",), dict(metavar="FILE", required=True)),
        (("--transport",), dict(choices=("live", "sim"), default="sim")),
        (("--sim-topology",), dict(metavar="FILE")),
        (("--interface",), dict(help="live mode: interface to sniff replies on")),
        (("--rate",), dict(type=float, default=200_000.0, help="probes per second")),
        (("--hop-limit",), dict(type=int, default=64)),
        (("--cooldown",), dict(
            type=float,
            default=None,
            help="seconds to keep listening after the last probe (10 live, 0 sim)",
        )),
        (("--secret",), dict(
            default=None,
            help=f"payload authentication key (integer; default ${SECRET_ENV_VAR} or 0)",
        )),
        (("--source",), dict(metavar="ADDRESS", default=None)),
        (("--passes",), dict(type=int, default=1, help="repeat the scan N times (1..65536)")),
        (("--exclude",), dict(metavar="FILE", help="prefixes to drop from the target list")),
        (("--i-understand-live",), dict(action="store_true")),
        (("-o", "--output"), dict(metavar="FILE", default=None)),
        (("--manifest",), dict(metavar="FILE", help="record digests of the run")),
    )),
    "analyze": (cmd_analyze, "reduce reply files to findings", (
        (("action",), dict(choices=_report_names)),
        (("--replies",), dict(metavar="FILE", nargs="*", default=[])),
        (("--targets",), dict(metavar="FILE")),
        (("--aliased",), dict(metavar="FILE", help="known aliased prefixes")),
        (("--baseline",), dict(choices=("first", "previous"), default="first")),
        (("--subnet-length",), dict(type=int, default=48)),
        (("--min-time-exceeded",), dict(type=int, default=1)),
        (("--set",), dict(metavar="NAME=FILE", action="append", default=[])),
        (("--labels",), dict(metavar="FILE", help="prefix,label rows for compare")),
        (("--csv",), dict(metavar="FILE")),
    )),
    "manifest-verify": (cmd_manifest_verify, "re-check a recorded run", (
        (("manifest",), dict(metavar="MANIFEST")),
    )),
    "demo": (cmd_demo, "copy the bundled example inputs", (
        (("--into",), dict(
            metavar="DIR", default=".", help="directory to copy into (default: .)"
        )),
    )),
}


def _arguments(command: str):
    """The names and keywords of `command`'s arguments, with a callable
    `choices` called and a list `default` copied, so no two parses share one."""
    for names, kw in _SUBCOMMANDS[command][2]:
        kw = dict(kw)
        if callable(kw.get("choices")):
            kw["choices"] = kw["choices"]()
        if isinstance(kw.get("default"), list):
            kw["default"] = list(kw["default"])
        yield names, kw


def _exact_value(kw: dict, text: str):
    """`text` as the argument of `kw` reads it; a ValueError where argparse
    must answer: a value that starts with "-", fails its type or lies
    outside its choices."""
    if text.startswith("-"):
        raise ValueError(text)
    value = kw.get("type", str)(text)
    if "choices" in kw and value not in kw["choices"]:
        raise ValueError(text)
    return value


def _parse_exact(argv: list[str]):
    """The namespace that argparse gives a well-formed `argv`, read by the
    table without argparse, or None where argparse must answer.

    Well-formed is the subcommand first and its positional right after it,
    then exact flag names, each followed by its value: a switch by none, an
    `nargs="*"` flag by every token up to the next one that starts with
    "-", and a repeated flag as argparse takes it.  Help, `--config`,
    `--flag=value`, an abbreviation, an unknown token, a value that starts
    with "-", a bad value or a missing required flag give None.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    values = {"config": None, "command": argv[0]}
    positionals, flags, required = [], {}, set()
    for names, kw in _arguments(argv[0]):
        if not names[0].startswith("-"):
            positionals.append((names[0], kw))
            continue
        # argparse names the value after the first long flag.
        dest = next(n for n in names if n.startswith("--"))[2:].replace("-", "_")
        values[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
        flags.update(dict.fromkeys(names, (dest, kw)))
        if kw.get("required"):
            required.add(dest)
    i = 1 + len(positionals)
    try:
        for (dest, kw), text in zip(positionals, argv[1:i], strict=True):
            values[dest] = _exact_value(kw, text)
        while i < len(argv):
            dest, kw = flags[argv[i]]
            required.discard(dest)
            i += 1
            if kw.get("action") == "store_true":
                values[dest] = True
            elif kw.get("nargs") == "*":
                start = i
                while i < len(argv) and not argv[i].startswith("-"):
                    i += 1
                values[dest] = [_exact_value(kw, text) for text in argv[start:i]]
            else:
                value = _exact_value(kw, argv[i])
                i += 1
                if kw.get("action") == "append":
                    value = (values[dest] or []) + [value]
                values[dest] = value
    except (LookupError, ValueError):
        return None
    if required:
        return None
    return SimpleNamespace(**values, func=_SUBCOMMANDS[argv[0]][0])


class _Unsure(Exception):
    """A parser built for one subcommand met what only the full parser answers."""


def build_parser(config_path=None, command=None):
    """The argparse parser of every subcommand, or, given `command`, a parser
    of that one (and of the two that `--config` presets) which raises
    _Unsure on any argv it cannot parse."""
    import argparse  # only a command line that _parse_exact leaves loads it

    class OneCommandParser(argparse.ArgumentParser):
        """Refuses, instead of printing help or an error whose usage would
        list only the subcommands it was built with."""

        def error(self, message):
            raise _Unsure

        def print_help(self, file=None):
            raise _Unsure

    parser = (argparse.ArgumentParser if command is None else OneCommandParser)(
        prog="srascan",
        description="Probe subnet-router anycast addresses and study what answers.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON file with defaults for the subcommands"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = {}
    for name, (func, help_text, _) in _SUBCOMMANDS.items():
        if command is None or name == command or (config_path and name in _CONFIG_SECTIONS):
            built[name] = sub.add_parser(name, help=help_text)
            for names, kw in _arguments(name):
                built[name].add_argument(*names, **kw)
            built[name].set_defaults(func=func)

    if config_path:
        config = load_config(config_path)
        for name in _CONFIG_SECTIONS:
            actions = {a.dest: a for a in built[name]._actions}
            built[name].set_defaults(**{
                key: _config_value(config_path, name, actions[key], value)
                for key, value in config.get(name, {}).items()
            })
    return parser


def parse_args(argv: list[str]):
    """The namespace of `argv`: `_parse_exact`'s, or else
    `build_parser(config).parse_args(argv)`, building only the subcommand
    that argv names when that parser can parse argv whole."""
    args = _parse_exact(argv)
    if args is not None:
        return args
    import argparse

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
