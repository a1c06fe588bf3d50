"""Command line front end.

Subcommands mirror the workflow: `gen-targets` turns routing data into probe
lists, `scan` sends them (live, or against a simulated topology), `analyze`
reduces reply files to findings, `manifest-verify` re-checks a recorded run,
and `demo` copies the bundled example inputs somewhere writable.

Each process runs one command, and where no bytecode is cached it compiles
every module it imports, so this module holds only what a simulated scan
runs, plus `analyze` and `demo`.  The option table names each command's
function by module, resolved when a command line names it (`_command`):
`gen-targets` runs `target_gen.cmd_gen_targets` and `manifest-verify`
`manifest.cmd_manifest_verify`.  A command imports what only it uses when
it runs: `scan` imports `probe_engine`, with `netsim` or `live` for its
transport and `manifest` for `--manifest`, and `analyze` `analysis`.
Every command reads its inputs through `addresses`.

Every flag is declared once, in the option table `_SUBCOMMANDS`.  A
well-formed command line (the subcommand first, exact flag names, each
value taken as given) is read by that table alone (`_parse_exact`), so
such a command loads no argparse, and with it no gettext or locale.  Any
other command line (help, `--config`, an abbreviation, `--flag=value`, a
bad value) goes to `cli_fallback`, whose argparse parser, built from the
same table, prints what it always printed; a JSON config file
(`--config`) preloads defaults for gen-targets and scan there.  `analyze`
renders the reports of `analysis.REPORTS` as JSON and CSV.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from . import addresses

SECRET_ENV_VAR = "SRASCAN_SECRET"


def data_dir():
    """Directory of bundled demo inputs."""
    import importlib.resources

    return importlib.resources.files("srascan") / "data"


class CliError(Exception):
    """Operational failure with a message for stderr."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


# --- shared input helpers ---------------------------------------------------------


def _load(path, read, *args, into=list):
    """`read(lines, *args)` over the lines of a line-oriented input file,
    collected by `into`.

    `read` is `addresses.read_addresses` for a probe list,
    `addresses.read_hitlist` for a hitlist, `addresses.read_prefixes` for a
    prefix file, `analysis.read_replies` for a reply file, or
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
        from .live import LiveTransport  # only a live scan opens sockets

        transport = LiveTransport(args.interface, source, args.hop_limit)
    else:
        from . import netsim  # only a simulated scan reads it

        input_paths.append(args.sim_topology)
        try:
            topology = netsim.load_topology(args.sim_topology)
        except (ValueError, OSError, TypeError, RecursionError) as exc:
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
        from . import manifest  # only --manifest digests files

        manifest.write_scan_manifest(
            args, cooldown, len(targets), source, secret, input_paths, outputs
        )
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


# Each subcommand's function, as "module.function" within srascan, its help
# line and its arguments, every flag declared here once.  An argument is the
# names and keywords that `add_argument` takes, in the order help lists
# them; a callable `choices` is called when the subcommand is built.
# `cli_fallback.build_parser` hands each argument to argparse as it
# stands, and `_parse_exact` reads a well-formed command line by the same
# entries, using only `type`, `choices`, `default`, `required`, `action`
# ("store_true" or "append") and `nargs` ("*").
_SUBCOMMANDS = {
    "gen-targets": ("target_gen.cmd_gen_targets", "build a probe list from routing data", (
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
    "scan": ("cli.cmd_scan", "send one echo request per target", (
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
    "analyze": ("cli.cmd_analyze", "reduce reply files to findings", (
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
    "manifest-verify": ("manifest.cmd_manifest_verify", "re-check a recorded run", (
        (("manifest",), dict(metavar="MANIFEST")),
    )),
    "demo": ("cli.cmd_demo", "copy the bundled example inputs", (
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


def _command(command: str):
    """The function that runs `command`, from the module that the table
    names for it, which is imported here if it is not loaded yet."""
    module, _, function = _SUBCOMMANDS[command][0].partition(".")
    __import__(f"{__package__}.{module}")
    return getattr(sys.modules[f"{__package__}.{module}"], function)


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
    return SimpleNamespace(**values, func=_command(argv[0]))


def parse_args(argv: list[str]):
    """The namespace of `argv`: `_parse_exact`'s, or else the one that
    `cli_fallback.parse_args` builds with argparse."""
    args = _parse_exact(argv)
    if args is not None:
        return args
    from . import cli_fallback

    return cli_fallback.parse_args(argv)


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
    # Run as a script, this file is a copy of `srascan.cli`; the commands
    # that live in other modules raise that module's CliError.
    from srascan.cli import main

    sys.exit(main())
