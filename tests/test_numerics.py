"""Log-domain helpers: identities against direct evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import numerics


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
    ok, sup = numerics.running_sup_stabilized(flat, 0.01)
    assert ok and sup == 1.0
    growing = np.linspace(0, 1, 100)
    ok, _ = numerics.running_sup_stabilized(growing, 0.01)
    assert not ok


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
