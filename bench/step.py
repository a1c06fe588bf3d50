"""Run one srascan CLI command in this process and record how it went.

    python3 bench/step.py RESULT.json [--trace] [--repeat N] -- SRASCAN-ARGS...

The command runs through `srascan.cli.main`, imported from the `src/`
directory next to this benchmark.  With --repeat it runs N times in a row
(stopping at the first failure); only the first run's standard output is
kept.  RESULT.json receives the exit code, the wall time of each run
(interpreter start-up and imports excluded), the process's peak resident
memory and, with --trace, the tracer's summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1 :]
    result_path, traced = own[0], "--trace" in own[1:]
    repeat = int(own[own.index("--repeat") + 1]) if "--repeat" in own else 1

    sys.path.insert(0, str(ROOT / "src"))
    from srascan import analysis, cli, netsim, probe_engine, target_gen

    tracer = None
    if traced:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, target_gen, probe_engine, netsim, analysis)

    walls: list[float] = []
    rc, first_out = 0, None
    while rc == 0 and len(walls) < repeat:
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(command)
        except SystemExit as exc:  # argparse refusing the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        walls.append(perf_counter() - start)
        first_out = out.getvalue() if first_out is None else first_out
    sys.stdout.write(first_out)
    result = {
        "rc": rc,
        "walls_s": walls,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "srascan": cli.__file__,
        "trace": tracer.summary() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
