"""The command lines that `cli`'s option table does not read by itself.

`cli._parse_exact` reads a well-formed command line from the option table
alone.  Any other command line (help, `--config`, an abbreviation,
`--flag=value`, a bad value) comes here, to one argparse parser of every
subcommand built from the same table, which prints what it always printed.
Like the table, the parser names each command and imports none of them;
`cli.main` runs the one that the parse names.  The `--config` loader lives
here too, since only such a command line names a config file.
"""

from __future__ import annotations

import json

from .cli import _SUBCOMMANDS, CliError, _arguments

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
    version = data.get("version")
    if type(version) is not int or version != CONFIG_VERSION:  # not true, not 1.0
        raise CliError(f"{path}: unsupported config version {version!r}")
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


def build_parser(config_path=None):
    """The argparse parser of every subcommand, with the defaults of the
    config file at `config_path`, if one is given."""
    import argparse  # manifest-verify imports this module for _read_json_object

    parser = argparse.ArgumentParser(
        prog="srascan",
        description="Probe subnet-router anycast addresses and study what answers.",
    )
    parser.add_argument(
        "--config", metavar="FILE", help="JSON file with defaults for the subcommands"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    built = {}
    for name, (_, help_text, _) in _SUBCOMMANDS.items():
        built[name] = sub.add_parser(name, help=help_text)
        for names, kw in _arguments(name):
            built[name].add_argument(*names, **kw)

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
    """`build_parser(config).parse_args(argv)`, with the config file that
    `--config` names, if any."""
    import argparse

    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    return build_parser(known.config).parse_args(argv)
