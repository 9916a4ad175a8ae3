"""Log-domain helpers: identities against direct evaluation."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentgate
from momentgate import numerics
from momentgate.conditions import SeriesReport, Status, Verdict
from momentgate.indices import IndexEstimate
from momentgate.moments import (
    GrowthFit,
    Jet,
    LambdaFit,
    LaplaceSample,
    TaylorBoundReport,
    jet_reciprocal,
)
from momentgate.special_functions import GridCheckReport, PoissonResult
from momentgate.verdicts import MapStatus, MapVerdict, MomentMapReport
from momentgate.verification import CheckResult, SuiteReport


def test_harmonic_small_values():
    assert numerics.harmonic_number(0) == 0.0
    assert numerics.harmonic_number(1) == 1.0
    direct = sum(1.0 / k for k in range(1, 101))
    assert numerics.harmonic_number(100) == pytest.approx(direct, rel=1e-14)


def test_harmonic_crossover_is_smooth():
    n = numerics.HARMONIC_TABLE_LIMIT
    below = numerics.harmonic_number(n)
    above = numerics.harmonic_number(n + 1)
    assert above - below == pytest.approx(1.0 / (n + 1), rel=1e-6)


def test_harmonic_big_int():
    n = 10**30
    expect = math.log(n) + numerics.EULER_GAMMA
    assert numerics.harmonic_number(n) == pytest.approx(expect, rel=1e-15)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        numerics.harmonic_number(-1)


@given(st.floats(min_value=-700.0, max_value=-1e-9))
def test_log1mexp_partition_of_unity(x):
    # e^log1mexp(x) + e^x = 1 exactly in the reals; both branches must agree
    out = numerics.log1mexp(x)
    assert abs(math.exp(out) + math.exp(x) - 1.0) <= 1e-14


def test_log_sub_exp_basics():
    a, b = math.log(5.0), math.log(3.0)
    assert numerics.log_sub_exp(a, b) == pytest.approx(math.log(2.0), rel=1e-14)
    assert numerics.log_sub_exp(a, a) == -math.inf
    assert numerics.log_sub_exp(a, -math.inf) == a
    with pytest.raises(ValueError):
        numerics.log_sub_exp(b, a)


@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=30)
)
@settings(max_examples=50)
def test_logsumexp_suffix_matches_direct(terms):
    arr = np.array(terms)
    out = numerics.logsumexp_suffix(arr)
    for p in range(len(terms)):
        direct = math.log(math.fsum(math.exp(t) for t in terms[p:]))
        assert out[p] == pytest.approx(direct, rel=1e-12)
    # suffix sums shrink as the suffix shrinks
    assert np.all(np.diff(out) <= 1e-12)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _fold_cases():
    """Arrays for the log_cumsum fuzz: geometric, power-law, noisy and mixed
    terms at lengths around the fold block, plus runs of -inf, a NaN or +inf
    after a stagnant stretch, and running sums at +-0.0 and +-2^k."""
    rng = np.random.default_rng(20261019)
    block = numerics._FOLD_BLOCK
    cases = []
    for n in (0, 1, block - 1, block, block + 1, 300_001):
        p = np.arange(n, dtype=float)
        cases += [
            rng.normal(0.0, 50.0) - rng.uniform(0.01, 3.0) * p,  # geometric
            -rng.uniform(0.5, 3.0) * np.log1p(p),  # power law
            rng.normal(0.0, 10.0, n),  # noisy
            np.where(p < n // 3, -0.02 * p, -np.log1p(p)) + rng.normal(0.0, 1e-3, n),
        ]
    for n in (3 * block + 7, 50_000):
        p = np.arange(n, dtype=float)
        runs = -0.5 * p
        for lo in rng.integers(0, n, 6):
            runs[lo : lo + int(rng.integers(1, 2 * block))] = -math.inf
        cases.append(runs)
        cases.append(np.full(n, -math.inf))
        for bad in (math.nan, math.inf):
            for at in (2 * block + 5, n - 1):
                late = -0.5 * p
                late[at] = bad
                cases.append(late)
    for head in (0.0, -0.0, 8.0, -8.0, 2.0**-20, -(2.0**-20), 2.0**40, -(2.0**40)):
        # the first block sums to `head` exactly; the rest sits just below
        # (or just above) the stagnation threshold of head
        n = 3 * block
        thr = head + (math.log(math.ulp(abs(head) or 1.0)) - math.log(8.0) - 1.0)
        for rest in (np.nextafter(thr, -math.inf), np.nextafter(thr, math.inf), thr + 1.0):
            t = np.full(n, rest)
            t[:block] = -math.inf
            t[0] = head
            cases.append(t)
    return cases


def test_log_cumsum_matches_accumulate_bit_for_bit():
    for t in _fold_cases():
        with np.errstate(invalid="ignore"):
            want = np.logaddexp.accumulate(t)
            got = numerics.log_cumsum(t)
        assert _same_bits(got, want), len(t)


def test_log_cumsum_skips_a_stagnant_tail(monkeypatch):
    # a geometric series stagnates within a few hundred terms: past the first
    # block, no term of a million reaches the fold
    folded = []

    def counting(arr, out):
        folded.append(arr.size)
        return np.logaddexp.accumulate(arr, out=out)

    monkeypatch.setattr(numerics, "_accumulate", counting)
    t = -0.5 * np.arange(10**6, dtype=float)
    got = numerics.log_cumsum(t)
    assert _same_bits(got, np.logaddexp.accumulate(t))
    assert sum(folded) <= 2 * numerics._FOLD_BLOCK


def test_log_array_carries_the_libm_log_of_math_log():
    # xlogy(1, x) must reach the libm log that math.log calls: a scipy build
    # with a log loop of its own (as np.log has) fails here by name
    rng = np.random.default_rng(21)
    cases = {
        "integers 1..2M": np.arange(1, 2_000_001, dtype=float),
        "log-uniform 1e-300..1e300": 10.0 ** rng.uniform(-300.0, 300.0, 1_000_000),
        # positive bit patterns below 2^52 are the subnormals
        "subnormals": np.concatenate(([1, 2**52 - 1], rng.integers(1, 2**52, 100_000))).view(np.float64),
    }
    for name, x in cases.items():
        want = np.fromiter(map(math.log, x.tolist()), float, count=x.size)
        assert _same_bits(numerics.log_array(x), want), name


def test_geometric_indices_memo_is_read_only():
    a = numerics.geometric_indices(10_001, 16)
    assert numerics.geometric_indices(10_001, 16) is a
    with pytest.raises(ValueError):
        a[0] = 5
    assert list(numerics.geometric_indices(0, 16)) == []


@pytest.mark.parametrize("e", [0.5, 1.0 - 1e-12, 1.0, 1.5, 3.0])
def test_log_integral_power_matches_quadrature(e):
    a, b = 0.5, 7.0
    xs = np.linspace(a, b, 200001)
    direct = math.log(np.trapezoid(xs ** (-e), xs))
    got = numerics.log_integral_power(math.log(a), math.log(b), e)
    assert got == pytest.approx(direct, rel=1e-6)


def test_fit_line_recovers_affine():
    x = np.linspace(0, 10, 50)
    slope, intercept = numerics.fit_line(x, 3.0 * x - 2.0)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert intercept == pytest.approx(-2.0, abs=1e-10)


def test_running_sup_stabilized():
    flat = np.concatenate([np.linspace(0, 1, 30), np.full(70, 1.0)])
    ok, final, at = numerics.running_sup_stabilized(flat, 0.01, [9, 29, 99])
    assert ok and final == 1.0
    assert at.tolist() == np.maximum.accumulate(flat)[[9, 29, 99]].tolist()
    growing = np.linspace(0, 1, 100)
    ok, final, at = numerics.running_sup_stabilized(growing, 0.01)
    assert not ok and final == 1.0 and at.size == 0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_running_sup_at_matches_the_accumulate_bit_for_bit():
    # draws from a small pool, so most values tie, with both zeros, both
    # infinities and nan among them; read points repeat and come unsorted
    rng = np.random.default_rng(20261021)
    pool = np.array([-2.5, -1.0, -0.0, 0.0, 0.0, -0.0, 1e-300, 3.0, 7.0, -np.inf, np.inf, np.nan])
    lengths = [1, 2, 3, 4, 5, 16, 17, 1000, 4097, 50_000]
    lengths += rng.integers(1, 50_001, size=30).tolist()
    for k, n in enumerate(lengths):
        # which pool entries a draw may take: signed zeros only, no nan, or all
        width = (6, 11, 12)[k % 3]
        lo = 2 if k % 3 == 0 else 0
        values = pool[rng.integers(lo, width, size=n)]
        if k % 5 == 0:
            values = np.sort(values)[::-1].copy()  # the sup is values[0] throughout
        at = np.concatenate((rng.integers(0, n, size=20), [0, n - 1], numerics.geometric_indices(n, 16) - 1))
        want = np.maximum.accumulate(values)[at]
        got = numerics.running_sup_at(values, at)
        assert np.array_equal(_bits(got), _bits(want)), (n, k)
        # a plain list reads the same
        assert np.array_equal(_bits(numerics.running_sup_at(values.tolist(), at[:3])), _bits(want[:3]))


def test_jsonable_nonfinite_to_strings():
    data = {"a": math.inf, "b": [-math.inf, math.nan, 1.5], "c": np.float64(2.0)}
    out = numerics.jsonable(data)
    assert out == {"a": "inf", "b": ["-inf", "nan", 1.5], "c": 2.0}
    import json

    json.dumps(out, allow_nan=False)  # must not raise


def test_index_label_forms():
    assert numerics.index_label(17) == "17"
    assert numerics.index_label(2**50) == "2^50"
    assert numerics.index_label(2**50 + 3) == "~2^50"


INF, NAN = math.inf, math.nan
_VERDICT = Verdict("nq", Status.HOLDS_AT_HORIZON, 64, {"sum": INF}, {"p": 3}, {"x": -INF})
_ESTIMATE = IndexEstimate("gamma", 1.0, INF, INF, "bisection", "slopes", NAN, (("2", "3"),), False)
_MAP_VERDICT = MapVerdict("stieltjes_injective", MapStatus.HOLDS, trace={"gamma_1": _VERDICT})
_CHECK = CheckResult("bound", False, measured=INF, bound=NAN)

# one instance of every result type the public API returns, each holding a
# non-finite float
STRICT_JSON_CASES = {
    "SeriesReport": SeriesReport("convergent", 1.0, INF, (INF, -INF), 0.0, INF, ((1, INF),)),
    "Verdict": _VERDICT,
    "IndexEstimate": _ESTIMATE,
    "MapVerdict": _MAP_VERDICT,
    "MomentMapReport": MomentMapReport(
        {"kind": "gevrey", "s": 1.0}, "gevrey", 64, {"nq": _VERDICT},
        _MAP_VERDICT, _MAP_VERDICT, _MAP_VERDICT, _MAP_VERDICT, _ESTIMATE, _ESTIMATE, (),
    ),
    "CheckResult": _CHECK,
    "SuiteReport": SuiteReport("moments", False, (_CHECK,), {"tol": INF}),
    "PoissonResult": PoissonResult(INF, INF, 1.0, 3),
    "GridCheckReport": GridCheckReport("decay", False, INF, 1.0, 1e-4, ((0.0, 1.0, INF, 1.0, -INF),)),
    "LaplaceSample": LaplaceSample(complex(1.0, 0.0), complex(INF, NAN), INF),
    "GrowthFit": GrowthFit(False, INF, 0.0, (-INF,), NAN, "still rising"),
    "LambdaFit": LambdaFit(False, INF, INF, (-INF,), NAN, "still rising"),
    "TaylorBoundReport": TaylorBoundReport(False, INF, INF, 10, (3, 0.5), "violated"),
    "Jet": Jet((1.0, complex(INF, 1.0), Fraction(1, 3))),
    "Jet:reciprocal": jet_reciprocal(Jet((1e-320, 1.0, 0.0))),
}


def test_strict_json_cases_cover_public_results():
    inputs = {"DerivedSpec", "Example38Spec", "ExplicitSpec", "GevreySpec", "QGevreySpec", "TestFunction"}
    public = {
        name for name in momentgate.__all__
        if isinstance(getattr(momentgate, name), type)
        and dataclasses.is_dataclass(getattr(momentgate, name))
    }
    assert public - inputs <= STRICT_JSON_CASES.keys()


@pytest.mark.parametrize("name", sorted(STRICT_JSON_CASES))
def test_results_convert_to_strict_json(name):
    text = json.dumps(numerics.jsonable(STRICT_JSON_CASES[name]), allow_nan=False)
    assert '"inf"' in text
