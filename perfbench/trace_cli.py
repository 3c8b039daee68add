"""Traced ``trapcorr integrate`` process for the cli workload.

    python3 perfbench/trace_cli.py STATS.json KEEP_SPANS ARGS...

Times ``import trapcorr.cli``, installs the outside-in tracer, runs the
CLI's ``main`` on ARGS, writes the aggregated spans to STATS.json and
exits with the CLI's code.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    import trapcorr.cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer
    tracer = Tracer(keep_spans=int(argv[2]))
    tracer.install()
    try:
        return trapcorr.cli.main(argv[3:])
    finally:
        tracer.uninstall()
        with open(argv[1], "w") as fh:
            json.dump({"import_s": import_s, "stats": tracer.stats,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
