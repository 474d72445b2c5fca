"""One traced CLI request of the cli-cold workload.

Usage: python3 bench/cli_child.py TRACE_OUT OP_ID OMEGALAB_ARGS...

Imports omegalab (timing the import), installs the span wrappers, runs
omegalab.cli.main with the remaining arguments, writes the tracer's
aggregates and spans to TRACE_OUT and exits with main's status.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    started = perf_counter()
    import omegalab.cli
    import_s = perf_counter() - started
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return omegalab.cli.main(argv)
    finally:
        agg = tracer.aggregates()
        agg["import_s"] = import_s
        agg["spans_stored"] = tracer.spans
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(agg, fh)


if __name__ == "__main__":
    sys.exit(main())
