"""Command line surface: exit codes, formats, determinism, sweeps."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import momentgate

from momentgate.cli import _CSV_FIELDS, RunConfig, main
from momentgate.errors import ValidationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GEVREY25 = '{"kind":"gevrey","s":2.5}'


def test_run_config_invariants():
    RunConfig()  # defaults are valid
    with pytest.raises(ValidationError):
        RunConfig(horizon=32)
    with pytest.raises(ValidationError):
        RunConfig(tol=0.0)
    with pytest.raises(ValidationError):
        RunConfig(quad_tol=-1.0)
    with pytest.raises(ValidationError):
        RunConfig(output="yaml")


def test_analyze_pretty_cites_theorem_tags(capsys):
    code, out, _ = run(capsys, "analyze", GEVREY25)
    assert code == 0
    assert "Thm 3.4 (i)" in out
    assert "Thm 3.5 (v)" in out
    assert "surjective" in out and "equivalence" in out


def test_analyze_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "analyze", GEVREY25, "--format", "json")
    code2, out2, _ = run(capsys, "analyze", GEVREY25, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema"] == 1
    assert data["verdicts"]["injective"]["status"] == "fails"
    assert data["verdicts"]["surjective"]["status"] == "holds"


def test_analyze_inconclusive_exit_two(capsys, tmp_path):
    log_m = [0.5 + 0.45 * math.sin(2.2 * p) for p in range(40)]
    spec = {
        "kind": "explicit",
        "log_m": log_m,
        "tail": {"rule": "power", "exponent": 0.0},
    }
    path = tmp_path / "wiggly.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    assert "conditional" in out


def test_analyze_parse_error_names_position(capsys):
    code, _, err = run(capsys, "analyze", '{"kind":"gevrey" "s":1}')
    assert code == 1
    assert "line 1" in err and "column" in err


def test_analyze_bad_field_named(capsys):
    code, _, err = run(capsys, "analyze", '{"kind":"gevrey","s":-2}')
    assert code == 1
    assert "'s'" in err
    code, _, err = run(capsys, "analyze", '{"kind":"wat"}')
    assert code == 1
    assert "kind" in err
    # nesting deep enough to exhaust the stack is refused as a spec error
    deep = '{"kind":"gevrey","s":1}'
    for _ in range(600):
        deep = '{"kind":"derived","op":"hat","base":%s}' % deep
    code, _, err = run(capsys, "analyze", deep)
    assert code == 1
    assert err.count("error:") == 1 and "'base'" in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/spec.json")
    assert code == 1
    assert "cannot read" in err


def test_analyze_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "analyze", GEVREY25, "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["name"] == "gevrey(2.5)"


def test_sweep_gevrey_flips_at_one(capsys):
    code, out, _ = run(capsys, "sweep", "gevrey", "--grid", "0.2:3.0:0.2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 15
    assert list(rows[0]) == _CSV_FIELDS
    for row in rows:
        s = float(row["value"])
        assert row["schema"] == "1"
        assert (row["injective"] == "holds") == (s <= 1.0)
        assert (row["surjective"] == "holds") == (s > 1.0)
        assert row["error"] == ""


def test_sweep_q_gevrey_inf_marker(capsys):
    code, out, _ = run(capsys, "sweep", "q_gevrey", "--values", "1.5,2,4")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        assert row["gamma_upper"] == "inf"
        assert row["gamma_estimate"] == "inf"


def test_sweep_empty_grid_is_an_error(capsys):
    code, _, err = run(capsys, "sweep", "gevrey", "--values", "")
    assert code == 1 and "empty grid" in err
    code, _, err = run(capsys, "sweep", "gevrey")
    assert code == 1


def test_sweep_bad_grid_syntax(capsys):
    code, _, err = run(capsys, "sweep", "gevrey", "--grid", "1:2")
    assert code == 1 and "start:stop:step" in err
    code, _, err = run(capsys, "sweep", "gevrey", "--grid", "1:2:-0.5")
    assert code == 1
    code, _, err = run(capsys, "sweep", "gevrey", "--values", "a,b")
    assert code == 1
    code, _, err = run(capsys, "sweep", "pluricomplex", "--values", "1")
    assert code == 1 and "unknown family" in err


def test_sweep_row_errors_isolated(capsys):
    code, out, _ = run(capsys, "sweep", "gevrey", "--values", "1.5,-3,0.5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[1]["error"].startswith("ValidationError")
    assert rows[1]["injective"] == ""
    assert rows[0]["error"] == "" and rows[2]["error"] == ""


def test_sweep_parallel_matches_serial(capsys):
    code, serial, _ = run(capsys, "sweep", "gevrey", "--values", "0.5,1.5,2.5")
    code2, parallel, _ = run(
        capsys, "sweep", "gevrey", "--values", "0.5,1.5,2.5", "--jobs", "2"
    )
    assert code == code2 == 0
    assert serial == parallel


def test_verify_inversion_pretty_and_json(capsys):
    code, out, _ = run(capsys, "verify", "inversion")
    assert code == 0
    assert "PASS" in out and "Lem 3.7" in out
    code, out, _ = run(capsys, "verify", "inversion", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 1 and "unknown suite" in err


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTGATE_CACHE_DIR", str(tmp_path))
    spec = '{"kind":"example38"}'
    code, out1, _ = run(capsys, "analyze", spec, "--format", "json")
    assert code == 0
    cached = list(tmp_path.glob("*.npy"))
    assert len(cached) == 1
    code, out2, _ = run(capsys, "analyze", spec, "--format", "json")
    assert out1 == out2


def test_config_flags_reach_report(capsys):
    code, out, _ = run(
        capsys, "analyze", GEVREY25, "--format", "json", "--horizon", "2048"
    )
    assert code == 0
    assert json.loads(out)["horizon"] == 2048
    code, _, err = run(capsys, "analyze", GEVREY25, "--horizon", "16")
    assert code == 1 and "horizon" in err


def test_horizon_beyond_index_limit_refused(capsys):
    # prefixes stop at BIG_INDEX_LIMIT = 2 000 000; the config refuses the
    # horizon before any work starts
    code, out, err = run(capsys, "analyze", GEVREY25, "--horizon", "3000000")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and "horizon" in err


def test_certified_condition_survives_witnessless_failure(capsys):
    # the numeric (nq) check of gevrey(1e-300) fails at the horizon without a
    # witness; the constructor certificate stands instead of raising
    code, out, err = run(capsys, "analyze", '{"kind":"gevrey","s":1e-300}', "--format", "json")
    assert code in (0, 2)
    assert "error:" not in err
    assert json.loads(out)["hypotheses"]["nq"]["status"] == "exact_holds"


@pytest.mark.parametrize(
    "spec",
    [
        '{"kind":"gevrey","s":1e300}',
        '{"kind":"q_gevrey","q":1e300}',
        '{"kind":"explicit","log_m":[1e300],"tail":{"rule":"arithmetic","step":1}}',
        '{"kind":"explicit","log_m":[0],"tail":{"rule":"arithmetic","step":1e300}}',
        '{"kind":"explicit","log_m":[0],"tail":{"rule":"power","exponent":1e300}}',
        '{"kind":"derived","op":"power","s":1e300,"base":{"kind":"gevrey","s":1}}',
        '{"kind":"derived","op":"power","s":2.5,"base":{"kind":"example38"}}',
        '{"kind":"explicit","log_m":[-800],"tail":{"rule":"arithmetic","step":1}}',
    ],
    ids=[
        "gevrey_s_1e300", "q_gevrey_q_1e300", "explicit_log_m_1e300", "explicit_step_1e300",
        "explicit_exponent_1e300", "power_s_1e300", "power_example38", "explicit_log_m_-800",
    ],
)
def test_analyze_extreme_growth_reports(spec, capsys, tmp_path, monkeypatch):
    # constants past the float range are reported as inf, without an
    # OverflowError or a numpy overflow warning
    monkeypatch.delenv("MOMENTGATE_CACHE_DIR", raising=False)
    target = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", spec, "--horizon", "256", "--format", "json", "--out", str(target)])
    assert code in (0, 2)
    json.loads(target.read_text())


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate dominates start-up; only moment quadrature imports it
    src = os.path.dirname(os.path.dirname(momentgate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, momentgate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
