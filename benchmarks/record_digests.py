"""Record the sha256 of each canonical report the classify workloads produce
for the default seed, for the first operations a run reaches.

    python3 benchmarks/record_digests.py

Rewrites benchmarks/digests.json. Run it only on a commit whose reports are
known to be right: the benchmark then fails every later commit whose JSON
bytes differ.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# the same BLAS/OpenMP thread count as the benchmark's children: the thread
# count can change the last bits of a float, and with them the report bytes
for var in run.THREAD_VARS:
    os.environ[var] = "1"

# more operations than a 50 s run completes on a 2-core machine, also while
# the machine runs at its fastest
RECORDED_OPS = {"classify_regular": 260, "classify_block": 40}


def record(workload: str, count: int) -> list:
    scratch = tempfile.mkdtemp(dir=HERE.parent / ".bench_work", prefix="digests-")
    os.environ.pop("MOMENTGATE_CACHE_DIR", None)
    if workload == "classify_regular":
        os.environ["MOMENTGATE_CACHE_DIR"] = os.path.join(scratch, "cache")
    try:
        ctx = workloads.Context(workload, scratch)
        digests = []
        ops = workloads.operations(workload, workloads.DEFAULT_SEED)
        for index, op in enumerate(itertools.islice(ops, count)):
            result = workloads.run_op(ctx, op)
            why = workloads.check_op(ctx, op, index, workloads.DEFAULT_SEED, result)
            if why:
                raise SystemExit(f"{workload} operation {index} failed: {why}")
            digests.append(ctx.last_digest)
        return digests
    finally:
        os.environ.pop("MOMENTGATE_CACHE_DIR", None)
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> None:
    (HERE.parent / ".bench_work").mkdir(exist_ok=True)
    out = {w: record(w, n) for w, n in RECORDED_OPS.items()}
    with open(HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
