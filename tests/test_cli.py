"""Command line surface: exit codes, formats, determinism, sweeps."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import momentgate

from momentgate.cli import _CSV_FIELDS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GEVREY25 = '{"kind":"gevrey","s":2.5}'


def test_run_config_invariants(capsys):
    # argparse refuses an out-of-range value before any work starts, with
    # one error line that names the flag; not (x > 0) also refuses nan
    for argv, flag in [
        (("analyze", GEVREY25, "--horizon", "32"), "--horizon"),
        (("analyze", GEVREY25, "--tol", "0"), "--tol"),
        (("verify", "moments", "--quad-tol", "-1"), "--quad-tol"),
        (("sweep", "gevrey", "--values", "1", "--jobs", "0"), "--jobs"),
        (("sweep", "gevrey", "--values", "1", "--tol", "nan"), "--tol"),
        (("verify", "inversion", "--format", "yaml"), "--format"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"argument {flag}:" in err, argv


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


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", GEVREY25, "--horizon", "abc"),
        ("analyze", GEVREY25, "--bogus"),
        ("analyze", GEVREY25, "--format", "yaml"),
        ("analyze",),
        ("frobnicate",),
        (),
        # each subcommand takes only the flags it reads
        ("analyze", GEVREY25, "--seed", "1"),
        ("analyze", GEVREY25, "--quad-tol", "1e-6"),
        ("sweep", "gevrey", "--values", "1", "--format", "json"),
        ("verify", "inversion", "--jobs", "2"),
        ("verify", "inversion", "--format", "csv"),
    ],
    ids=[
        "bad-int", "unknown-flag", "bad-choice", "no-spec", "unknown-command", "no-command",
        "analyze-seed", "analyze-quad-tol", "sweep-format", "verify-jobs", "verify-csv",
    ],
)
def test_parser_errors_are_one_error_line(argv, capsys):
    # exit 2 means "every verdict inconclusive", so a bad command line must
    # not end with argparse's usage and exit 2
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "usage: momentgate analyze" in capsys.readouterr().out


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MOMENTGATE_CACHE_DIR", str(tmp_path))
    spec = '{"kind":"example38"}'
    code, out1, _ = run(capsys, "analyze", spec, "--format", "json")
    assert code == 0
    cached = list(tmp_path.glob("*.npy"))
    assert len(cached) == 1
    code, out2, _ = run(capsys, "analyze", spec, "--format", "json")
    assert out1 == out2


def test_cache_rejects_one_corrupt_increment(capsys, tmp_path, monkeypatch):
    # every increment of a cached prefix is checked, not a few spot indices
    monkeypatch.setenv("MOMENTGATE_CACHE_DIR", str(tmp_path))
    code, cold, _ = run(capsys, "analyze", GEVREY25, "--format", "json")
    assert code == 0
    (path,) = tmp_path.glob("*.npy")
    values = np.load(path)
    values[8:] += 1.0  # log m_7 is off by one, every other increment intact
    np.save(path, values)
    code, warm, _ = run(capsys, "analyze", GEVREY25, "--format", "json")
    assert code == 0 and warm == cold


def test_cache_accepts_its_own_large_prefix_and_refuses_one_ulp(capsys, tmp_path, monkeypatch):
    # log M_4098 is about 4e7, where the difference of two stored sums misses
    # the increment by more than 1e-9; the check is the exact recurrence
    # values[p+1] == values[p] + inc[p] that persist's prefix satisfies
    from momentgate import cache, sequence_from_json

    monkeypatch.setenv("MOMENTGATE_CACHE_DIR", str(tmp_path))
    spec = '{"kind":"explicit","log_m":[0.1,0.2,0.3],"tail":{"rule":"arithmetic","step":5.0}}'
    code, cold, _ = run(capsys, "analyze", spec, "--format", "json", "--horizon", "4097")
    assert code in (0, 2)
    (path,) = tmp_path.glob("*.npy")
    values = np.load(path)
    assert len(values) == 4099 and values[-1] > 1e7
    seq = sequence_from_json(json.loads(spec))
    assert cache.warm(seq) and np.array_equal(np.asarray(seq._prefix), values)
    values[2000] = np.nextafter(values[2000], math.inf)
    np.save(path, values)
    assert not cache.warm(sequence_from_json(json.loads(spec)))
    code, warm, _ = run(capsys, "analyze", spec, "--format", "json", "--horizon", "4097")
    assert warm == cold


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


@pytest.mark.parametrize(
    "spec, horizon, bad",
    [
        # log M_p passes the float range near p = 19 000 while every log m_p
        # is finite; inf - inf quotients must not reach the report as NaN
        ('{"kind":"explicit","log_m":[0],"tail":{"rule":"arithmetic","step":1e300}}', "30000", "log M_"),
        # log m_1 = 1e300 * 1e300 log 2 overflows, with no numpy warning
        ('{"kind":"derived","op":"power","s":1e300,"base":{"kind":"gevrey","s":1e300}}', "256", "log m_1 "),
        # the explicit head alone sums past the float range
        ('{"kind":"explicit","log_m":[1e308,1e308],"tail":{"rule":"arithmetic","step":0}}', "256", "log M_2 "),
    ],
    ids=["prefix_overflow", "quotient_overflow", "head_sum_overflow"],
)
def test_analyze_non_finite_prefix_is_one_error(spec, horizon, bad, capsys, monkeypatch):
    monkeypatch.delenv("MOMENTGATE_CACHE_DIR", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "analyze", spec, "--horizon", horizon, "--format", "json")
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and bad in err


def test_cli_import_leaves_scipy_unloaded():
    # scipy.integrate dominates start-up; only moment quadrature imports it
    src = os.path.dirname(os.path.dirname(momentgate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, momentgate.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_closed_stdout_exits_without_traceback():
    # `momentgate verify inversion --format json | head -c 100`: the reader
    # goes away mid-output, and the command must exit quietly. Unbuffered,
    # print writes the text and the newline separately, so the newline
    # usually meets the closed pipe; the second run closes the reader
    # before the first write, so that write always does.
    src = os.path.dirname(os.path.dirname(momentgate.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-m", "momentgate.cli", "verify", "inversion", "--format", "json"]
    for unbuffered, take in (("1", 100), ("", 0)):
        child = subprocess.Popen(
            argv, env={**env, "PYTHONUNBUFFERED": unbuffered},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(child.stdout.read(take)) == take
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        code = child.wait(timeout=60)
        assert "Traceback" not in err, err
        # exit 1 once a write met the closed pipe, 0 if all output was out
        assert code == 1 if take == 0 else code in (0, 1)


def test_benchmark_tracer_installs():
    # benchmarks/tracing.py rebinds package names (omega_evaluator,
    # WeightSequence.log_m_fast, ...) by attribute; a rename must fail here
    src = os.path.dirname(os.path.dirname(momentgate.__file__))
    bench = os.path.join(os.path.dirname(src), "benchmarks")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import tracing; tracing.install(tracing.Tracer())"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=bench, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_public_names_all_resolve():
    # a deletion that leaves a dangling export breaks `from ... import *`
    from momentgate import cache, cli, moments, verdicts, verification

    for module in (momentgate, cache, cli, moments, verdicts, verification):
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [n for n in names if not hasattr(module, n)]
        assert missing == [], module.__name__
