"""Run one leavitt CLI command traced or profiled, as its own process.

    python3 perfbench/cli_child.py trace|profile OUT.json CLI-ARGS...

Stdout, stderr and the exit code are those of `python -m leavitt.cli
CLI-ARGS...`.  The spans (trace) or the coeffs/words profiler counts
(profile), with the time taken to import leavitt.cli, go to OUT.json.
"""

import cProfile
import json
import pstats
import sys
from time import perf_counter

import tracing


def main():
    mode, out_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import leavitt.cli

    doc = {"import_s": perf_counter() - t0}
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        tracer.op = 0
        try:
            code = leavitt.cli.main(argv)
        finally:
            tracer.uninstall()
        doc["spans"] = tracer.spans
    else:
        prof = cProfile.Profile()
        prof.enable()
        code = leavitt.cli.main(argv)
        prof.disable()
        doc["profile"] = tracing.profile_counts(pstats.Stats(prof).stats)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
