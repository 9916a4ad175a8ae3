"""One benchmark process: set up a workload, then run its operations for a
fixed time and print what happened as one JSON line.

Started by run.py in a fresh interpreter with the package's `src` first on
PYTHONPATH. Modes: `setup` stops once ready for the first operation,
`measure` runs untraced, `trace` runs with the tracing wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ctx = workloads.Context(args.workload, args.scratch)
    import momentgate

    if not os.path.abspath(momentgate.__file__).startswith(SRC + os.sep):
        print(f"error: momentgate imported from {momentgate.__file__}, not {SRC}", file=sys.stderr)
        return 3
    if args.seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as fh:
            ctx.digests = json.load(fh).get(args.workload, [])
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract its
    # own spawn time from this to get the set-up time
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    records = []
    start = end = time.monotonic()
    for index, op in enumerate(workloads.operations(args.workload, args.seed)):
        if index and end - start >= args.seconds:
            break
        t0 = time.monotonic()
        try:
            result = workloads.run_op(ctx, op)
            t1 = time.monotonic()
            why = workloads.check_op(ctx, op, index, args.seed, result)
        except Exception as e:  # one failed operation must not end the run
            t1 = time.monotonic()
            why = f"{type(e).__name__}: {e}"
        records.append([op.kind, t1 - t0, why])
        end = time.monotonic()

    import numpy
    import scipy

    out = {
        "ready": ready,
        "wall_s": end - start,
        "ops": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(len(records))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
