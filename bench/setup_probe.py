"""Time srascan's set-up for a simulated scan in a fresh interpreter.

    python3 bench/setup_probe.py RESULT.json TOPOLOGY.json RATE

RESULT.json receives `setup_s`, the seconds from before `import srascan`
until a `netsim.SimTransport` over the loaded topology exists, and the
file srascan was imported from.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    result_path, topology_path, rate = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    from srascan import cli, netsim  # noqa: F401 - the CLI's imports are set-up

    netsim.SimTransport(netsim.load_topology(topology_path), tick=1.0 / rate)
    setup_s = perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"setup_s": setup_s, "srascan": netsim.__file__}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
