"""momentgate benchmark: one seeded workload, measured from outside the package.

    python3 benchmarks/run.py --workload classify_regular --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
`src` directory, nothing is installed. Every run happens in fresh child
processes (child.py) with BLAS/OpenMP pinned to one thread and no inherited
cache directory. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer ones. Each metric is printed on its
own line with its unit, followed by run metadata; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"  # scratch space of running benchmarks, inside the checkout
SETUP_SAMPLES = 5  # four set-up-only children plus the measuring child
TIME_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env(cache_dir: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MOMENTGATE_CACHE_DIR"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    if cache_dir is not None:
        env["MOMENTGATE_CACHE_DIR"] = cache_dir
    return env


def spawn(args, mode: str, seconds: float, deadline: float, spans: str | None = None):
    """Run child.py once; return (set-up seconds, its JSON report)."""
    scratch = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        # classify_regular gets a fresh, empty cache per run, deleted with
        # the scratch directory, so no run reads another run's files
        cache = os.path.join(scratch, "cache") if args.workload == "classify_regular" else None
        cmd = [
            sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
            "--scratch", scratch,
        ]
        if spans:
            cmd += ["--spans", spans]
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(cache), cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} child did not finish within the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with code {proc.returncode}")
        report = json.loads(out.decode().strip().splitlines()[-1])
        return report["ready"] - t0, report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def tail_percentile(latencies: list) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    operations beyond it, or None if that percentile is not above the median."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - 11  # index of the operation with exactly ten beyond it
    if k < 0 or (k + 1) <= n / 2:
        return None
    return 100.0 * (k + 1) / n, lat[k]


def measured(args, deadline: float) -> tuple[dict, list, list]:
    setups = [spawn(args, "setup", 0.0, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, report = spawn(args, "measure", args.seconds, deadline)
    setups.append(setup)
    ops = report["ops"]
    latencies = [r[1] for r in ops]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / report["wall_s"],
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    failed = sum(1 for r in ops if r[2])
    lines = [
        f"setup samples: {', '.join(f'{s:.4f}' for s in setups)} s",
        f"failed_frac = {failed / len(ops):.6g} ratio ({failed} of {len(ops)} operations)",
    ]
    tail = tail_percentile(latencies)
    if tail is None:
        lines.append(f"op_tail_ms: undefined, {len(ops)} operations are too few for a tail")
    else:
        lines.append(f"op_tail_ms = {1e3 * tail[1]:.6g} ms (p{tail[0]:.1f} of {len(ops)} operations)")
    return values, [report], lines


def parse_importtime(stderr: str, prefix: str) -> float:
    """Seconds spent importing the outermost modules named `prefix` or
    `prefix.*`, from the output of `python -X importtime`."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip(" "))
        entries.append((depth, int(cumulative), name.strip()))
    total, stack = 0, []  # stack of (depth, inside a matching import)
    for depth, cumulative, name in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        match = name == prefix or name.startswith(prefix + ".")
        if match and not inside:
            total += cumulative
        stack.append((depth, inside or match))
    return total / 1e6


def import_times(deadline: float) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import momentgate.cli"],
        env=child_env(None), cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise BenchError(f"import of momentgate.cli failed: {proc.stderr.strip()[-500:]}")
    return parse_importtime(proc.stderr, "momentgate"), parse_importtime(proc.stderr, "scipy")


def traced(args, deadline: float) -> tuple[dict, list, list]:
    import_s, import_scipy_s = import_times(deadline)
    # half the time untraced and half traced, on the same seeded operations
    half = args.seconds / 2.0
    _, plain = spawn(args, "measure", half, deadline)
    spans = WORK / "trace" / f"{args.workload}-seed{args.seed}.json"
    _, report = spawn(args, "trace", half, deadline, spans=str(spans))
    plain_rate = len(plain["ops"]) / plain["wall_s"]
    traced_rate = len(report["ops"]) / report["wall_s"]
    values = dict(report["layers"])
    values.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "trace.overhead_ops_per_s": plain_rate - traced_rate,
    })
    lines = [
        f"ops_per_s untraced {plain_rate:.6g} 1/s, traced {traced_rate:.6g} 1/s",
        f"spans written to {spans.relative_to(ROOT)}",
    ]
    return values, [plain, report], lines


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "momentgate" / "__init__.py").is_file():
        print(f"error: no momentgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        values, reports, lines = (traced if args.trace else measured)(args, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    names = {m["name"] for m in declared}
    if set(values) != names:
        print(f"error: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    ops = [r for rep in reports for r in rep["ops"]]
    failures = [r for r in ops if r[2]]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for m in declared:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    for line in lines:
        print(line)
    for kind, _, why in failures[:10]:
        print(f"failed {kind}: {why}")
    meta = {
        **reports[-1]["versions"],
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "src_lines": src_lines(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
