"""The command lines that `cli`'s option table does not read by itself.

`cli._parse_exact` reads a well-formed command line from the option table
alone.  Any other command line (help, `--config`, an abbreviation,
`--flag=value`, a bad value) comes here, to an argparse parser built from
the same table, which prints what it always printed.  The `--config`
loader lives here too, since only such a command line names a config file.
"""

from __future__ import annotations

import json

from .cli import _SUBCOMMANDS, CliError, _arguments, _command

CONFIG_VERSION = 1

_CONFIG_SECTIONS = {
    "gen-targets": {"seed", "samples_per_prefix", "max_targets", "ndjson"},
    "scan": {"rate", "hop_limit", "cooldown", "passes", "source", "interface"},
}


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


class _Unsure(Exception):
    """A parser built for one subcommand met what only the full parser answers."""


def build_parser(config_path=None, command=None):
    """The argparse parser of every subcommand, or, given `command`, a parser
    of that one (and of the two that `--config` presets) which raises
    _Unsure on any argv it cannot parse."""
    import argparse  # manifest-verify imports this module for _read_json_object

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
    for name, (_, help_text, _) in _SUBCOMMANDS.items():
        if command is None or name == command or (config_path and name in _CONFIG_SECTIONS):
            built[name] = sub.add_parser(name, help=help_text)
            for names, kw in _arguments(name):
                built[name].add_argument(*names, **kw)
            built[name].set_defaults(func=_command(name))

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
    """`build_parser(config).parse_args(argv)`, building only the subcommand
    that argv names when that parser can parse argv whole."""
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
