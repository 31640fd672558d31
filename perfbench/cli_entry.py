"""Entry module for the cli-warm children: `python3 cli_entry.py <ffzeta args>`.

Without PERFBENCH_TRACE it does exactly what the `ffzeta` command does.
With PERFBENCH_TRACE=<file> it times the library import, installs the
same wrappers as the in-process traced run, runs `ffzeta.cli.main`, and
writes the layer totals and spans of this process to <file> at exit.
"""

import json
import os
import sys
import time


def main() -> int:
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from ffzeta.cli import main as cli_main
        return cli_main(sys.argv[1:])
    t0 = time.perf_counter()
    import ffzeta.cli
    import_s = time.perf_counter() - t0
    import tracing
    tracer = tracing.install()
    tracer.begin_job(os.environ.get("PERFBENCH_JOB"))
    t1 = time.perf_counter()
    try:
        return ffzeta.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t1
        stats, counts = tracer.totals()
        with open(trace_path, "w") as fh:
            json.dump({"import_s": import_s, "main_s": main_s, "stats": stats,
                       "counts": counts, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
