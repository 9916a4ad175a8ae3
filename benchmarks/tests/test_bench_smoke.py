"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest benchmarks/tests

Runs the workloads BENCHMARK.json gates and classify_block, which it does not.
Checks that each run prints every metric of BENCHMARK.json with its unit,
that no operation fails, and that the traced runs together produce spans in
every layer of the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = workloads.WORKLOADS
LAYERS = {
    "cli", "cache", "sequences", "conditions", "indices",
    "verdicts", "special_functions", "moments",
}


def run(workload: str, trace: int, seconds: float):
    proc = subprocess.run(
        [
            sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics_printed(lines, result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = run(workload, trace=0, seconds=1)
    assert_metrics_printed(lines, result, BENCH["end_to_end"])
    assert any(line.startswith("failed_frac = 0 ratio") for line in lines)
    assert any(line.startswith("meta ") for line in lines)


def test_traced_spans_cover_every_layer():
    layers = set()
    for workload in WORKLOADS:
        # half of the run is traced; four seconds hold a whole numerics_mix cycle
        lines, result = run(workload, trace=1, seconds=8)
        assert_metrics_printed(lines, result, BENCH["per_layer"])
        spans = json.loads((ROOT / ".bench_work" / "trace" / f"{workload}-seed0.json").read_text())
        assert spans["fields"] == ["name", "start", "end", "parent"]
        layers |= {name.split(".", 1)[0] for name, *_ in spans["spans"]}
    assert layers >= LAYERS, LAYERS - layers
