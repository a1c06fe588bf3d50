"""Run manifests: `scan --manifest FILE` and `manifest-verify`.

A manifest records a scan's configuration, with the secret only as a
digest, and the sha256 of each input and reply file, by its path relative
to the manifest.  `manifest-verify` re-digests every listed file.  A scan
imports this module, and with it `hashlib` and `datetime`, only when
`--manifest` is given.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import addresses
from .cli import CliError

MANIFEST_VERSION = 1


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _secret_digest(secret: int) -> str:
    return hashlib.sha256(secret.to_bytes(8, "big")).hexdigest()


def _manifest_entry(path, manifest) -> dict:
    """Digest of `path`, recorded relative to the manifest's directory."""
    relative = os.path.relpath(path, os.path.dirname(os.path.abspath(manifest)))
    return {"path": relative, "sha256": _sha256_file(path)}


def write_scan_manifest(
    args, cooldown: float, targets_probed: int, source: int, secret: int,
    inputs: list[str], outputs: list[str],
) -> None:
    """Write the manifest of a finished scan to `args.manifest`."""
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
            "targets_probed": targets_probed,
            "source": addresses.format_address(source),
            "secret_sha256": _secret_digest(secret),
        },
        "inputs": [_manifest_entry(p, args.manifest) for p in inputs],
        "outputs": [_manifest_entry(p, args.manifest) for p in outputs],
    }
    with open(args.manifest, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _manifest_entries(path) -> list[dict]:
    """The input and output entries of a manifest, each with a path and a digest.

    A manifest lists at least one input and at least one output, and one
    output per pass when its `config.passes` is an integer: a scan's
    manifest always lists its targets and each pass's reply file.
    """
    from .cli_fallback import _read_json_object  # not compiled by scan --manifest

    manifest = _read_json_object(path)
    version = manifest.get("version")
    if type(version) is not int or version != MANIFEST_VERSION:  # not true, not 1.0
        raise CliError(f"{path}: unsupported manifest version {version!r}")
    entries = []
    for key in ("inputs", "outputs"):
        listed = manifest.get(key)
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
    inputs, outputs = len(manifest["inputs"]), len(manifest["outputs"])
    config = manifest.get("config")
    passes = config.get("passes") if isinstance(config, dict) else None
    if not inputs:
        raise CliError(f"{path}: the manifest lists no input")
    if not outputs:
        raise CliError(f"{path}: the manifest lists no output")
    if type(passes) is int and outputs != passes:  # not true
        raise CliError(f"{path}: {outputs} outputs listed for {passes} passes")
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
