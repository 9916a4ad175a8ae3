"""Moment quadrature, growth fits, jet inversion, and Taylor machinery."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import (
    ExplicitSpec,
    GevreySpec,
    Jet,
    QuadratureError,
    ValidationError,
    bump01_taylor,
    derivative_function,
    fit_growth_envelope,
    forward_binomial,
    inversion_coeffs,
    jet_reciprocal,
    lambda_fit,
    laplace_sample,
    make_bump01,
    make_exp_power,
    make_sequence,
    make_user,
    moment,
    moment_origin,
    phase_forward_binomial,
    phase_inversion_coeffs,
    taylor_bound_check,
)
from momentgate import numerics
from momentgate.moments import GaussianRational, moment_with_error

BUMP_MASS = 0.007029858406609656  # integral of exp(-1/x - 1/(1-x)) over (0,1)


# ---------------------------------------------------------------------------
# moments on the half line


@pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
def test_moment_exp_power_closed_form(s):
    phi = make_exp_power(s)
    for p in (0, 1, 4, 9, 15):
        want = s * math.exp(math.lgamma(s * (p + 1)))
        assert moment(phi, p) == pytest.approx(want, rel=1e-11)


def test_moment_error_estimate_is_honest():
    phi = make_exp_power(2.0)
    value, err = moment_with_error(phi, 3)
    want = 2.0 * math.exp(math.lgamma(8.0))
    assert abs(value - want) <= max(err, 1e-12 * want)


def test_moment_user_function_with_declared_decay():
    # x^3 / (1+x^6) integrates to pi / (3 sqrt(3))
    phi = make_user(lambda x: 1.0 / (1.0 + x**6), decay_exponent=6.0, name="cauchy6")
    want = math.pi / (3.0 * math.sqrt(3.0))
    assert moment(phi, 3) == pytest.approx(want, rel=1e-9)


def test_moment_refuses_insufficient_decay():
    phi = make_user(lambda x: 1.0 / (1.0 + x**6), decay_exponent=6.0)
    with pytest.raises(ValidationError):
        moment(phi, 5)  # x^5 integrand decays like x^-1: divergent
    with pytest.raises(ValidationError):
        moment(phi, -1)
    with pytest.raises(ValidationError):
        make_user(lambda x: 0.0, decay_exponent=0.0)


def test_moment_bump_support():
    bump = make_bump01()
    assert moment(bump, 0) == pytest.approx(BUMP_MASS, rel=1e-9)


# ---------------------------------------------------------------------------
# origin moments


def test_origin_moment_matches_plain_moment_at_zero():
    bump = make_bump01()
    assert moment_origin(bump, 0) == pytest.approx(moment(bump, 0), rel=1e-9)


def test_origin_moments_finite_for_flat_bump():
    bump = make_bump01()
    # every negative power is absorbed by the flat vanishing at 0
    for p in (1, 4, 8):
        v = moment_origin(bump, p)
        assert math.isfinite(v) and v > 0


def test_origin_moment_rejects_blowup():
    flat = make_user(lambda x: 1.0, decay_exponent=1.0, support=(0.0, 1.0))
    with pytest.raises(QuadratureError):
        moment_origin(flat, 2)


def test_origin_derivative_identity():
    bump = make_bump01()
    dbump = derivative_function(bump, 1)
    for p in (1, 3, 6):
        lhs = moment_origin(dbump, p)
        rhs = p * moment_origin(bump, p + 1)
        assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# Laplace samples


def test_laplace_closed_values():
    e1 = make_exp_power(1.0)
    assert laplace_sample(e1, 0.0).value == pytest.approx(1.0, abs=1e-12)
    # kernel e^(i zeta x): L(i) = integral e^(-2x) = 1/2
    assert laplace_sample(e1, 1j).value == pytest.approx(0.5, abs=1e-12)
    # and on the real axis L(1) = 1/(1-i)
    assert laplace_sample(e1, 1.0).value == pytest.approx(
        complex(0.5, 0.5), abs=1e-10
    )


def test_laplace_rejects_lower_half_plane():
    e1 = make_exp_power(1.0)
    with pytest.raises(ValidationError):
        laplace_sample(e1, -0.5j)


def test_laplace_second_difference_matches_moment():
    e1 = make_exp_power(1.0)
    h = 0.005
    fd = (
        laplace_sample(e1, h).value
        - 2.0 * laplace_sample(e1, 0.0).value
        + laplace_sample(e1, -h + 0j).value
    ) / h**2
    assert fd.real == pytest.approx(-moment(e1, 2), rel=1e-4)


# ---------------------------------------------------------------------------
# growth-envelope fits


def test_fit_accepts_exact_geometric_ratios():
    # r_p = p log 2 fits h = 2, C = 1 with zero drift
    fit = fit_growth_envelope([p * math.log(2.0) for p in range(20)])
    assert fit.ok
    assert fit.h == pytest.approx(2.0, rel=1e-12)
    assert fit.C == pytest.approx(1.0, rel=1e-9)


def test_lambda_fit_moment_sequences():
    vals2 = [2.0 * math.exp(math.lgamma(2.0 * (p + 1))) for p in range(21)]
    fit = lambda_fit(vals2, make_sequence(GevreySpec(s=1.0)))
    assert fit.ok
    # Stirling: (2(p+1))! / (p!)^2 p! ~ 4^p modulo polynomial factors
    assert 3.7 <= fit.h <= 4.5

    ones_vals = [math.exp(math.lgamma(p + 1)) for p in range(21)]
    # p! against p! M_p with M = 1: exact membership with h = C = 1
    from momentgate import ExplicitSpec

    ones = make_sequence(ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0))
    fit1 = lambda_fit(ones_vals, ones)
    assert fit1.ok
    assert fit1.h == pytest.approx(1.0, rel=1e-9)
    assert fit1.C == pytest.approx(1.0, rel=1e-9)


def test_lambda_fit_rejects_too_fast_growth():
    vals = [math.exp(3.0 * math.lgamma(p + 1)) for p in range(21)]
    fit = lambda_fit(vals, make_sequence(GevreySpec(s=1.0)))
    assert not fit.ok
    # residual slope keeps climbing by about log(4/3) per index
    assert fit.drift > 0.2


def test_fit_needs_enough_points():
    with pytest.raises(ValidationError):
        fit_growth_envelope([0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# exact jets


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1), Fraction(2))
    b = GaussianRational(Fraction(3), Fraction(-1))
    assert a * b == GaussianRational(Fraction(5), Fraction(5))
    assert (a / b) * b == a
    assert a + b - b == a
    assert complex(a) == 1 + 2j
    assert hash(GaussianRational(Fraction(2), Fraction(0))) == hash(Fraction(2))


def test_jet_reciprocal_worked_example():
    # g = 1 + x as derivative values at 0: (1, 1, 0, ...)
    g = Jet((1, 1, 0, 0, 0))
    h = jet_reciprocal(g)
    # 1/(1+x) has n-th derivative (-1)^n n! at 0
    for n, c in enumerate(h.coefficients):
        assert c == Fraction((-1) ** n * math.factorial(n))
    with pytest.raises(ValidationError):
        jet_reciprocal(Jet((0, 1)))


def test_inversion_round_trip_worked_example():
    G = Jet((1, 1, 0, 0))  # G = 1 + x
    b = Jet((1, -1, 2, 0))
    c = forward_binomial(b, G)
    back = inversion_coeffs(c, G)
    assert back.coefficients == tuple(Fraction(v) for v in (1, -1, 2, 0))


def test_phase_round_trip_exact():
    G = Jet((2, 1, -1, 0, 3))
    b = Jet((Fraction(1, 3), Fraction(-2, 5), 1, 0, Fraction(7, 2)))
    c = phase_forward_binomial(b, G)
    back = phase_inversion_coeffs(c, G)
    assert back.coefficients == b.coefficients


def test_phase_complex_and_float_branches():
    # exact G with nonzero imaginary parts: G = 2 + (1+i) x + 3i x^2/2
    G = Jet(
        (
            GaussianRational(Fraction(2), Fraction(0)),
            GaussianRational(Fraction(1), Fraction(1)),
            GaussianRational(Fraction(0), Fraction(3)),
        )
    )
    b = Jet((Fraction(1), Fraction(2), Fraction(-1, 2)))
    c = phase_forward_binomial(b, G)
    # c_1 = (-i) (b_0 G_1 + i b_1 G_0) = (-i) (1 + 5i) = 5 - i
    assert c.coefficients[1] == GaussianRational(Fraction(5), Fraction(-1))
    assert c.coefficients == (
        GaussianRational(Fraction(2), Fraction(0)),
        GaussianRational(Fraction(5), Fraction(-1)),
        GaussianRational(Fraction(3), Fraction(-7)),
    )
    back = phase_inversion_coeffs(c, G)
    assert back.coefficients == b.coefficients
    assert all(
        isinstance(v, GaussianRational)
        and type(v.re) is Fraction
        and type(v.im) is Fraction
        for v in c.coefficients + back.coefficients
    )
    assert phase_forward_binomial(phase_inversion_coeffs(b, G), G).coefficients == (
        b.coefficients
    )

    # inexact jets are lifted to complex floats
    Gf = Jet((1.0, 0.5, -0.25))
    bf = Jet((2.0, -1 + 0.5j, 0.5))
    fwd = phase_forward_binomial(bf, Gf)
    inv = phase_inversion_coeffs(bf, Gf)
    assert fwd.coefficients == (2 + 0j, -1 - 0.5j, 1.5 + 1j)
    assert inv.coefficients == (2 + 0j, -1 + 1.5j, -1.5 - 1j)
    assert all(type(v) is complex for v in fwd.coefficients + inv.coefficients)
    mixed = phase_inversion_coeffs(Jet((Fraction(2), Fraction(-1), Fraction(1, 2))), Gf)
    assert mixed.coefficients == (2 + 0j, -1 + 1j, -1 - 1j)
    assert not mixed.exact

    # a GaussianRational next to a float lifts the plain functions to complex
    gr_float = Jet((GaussianRational(Fraction(1), Fraction(1)), 0.5))
    G2 = Jet((Fraction(1), Fraction(2)))
    lifted = (
        forward_binomial(gr_float, G2),
        inversion_coeffs(gr_float, G2),
        jet_reciprocal(Jet((GaussianRational(Fraction(2), Fraction(0)), 0.5))),
    )
    assert lifted[0].coefficients == (1 + 1j, 2.5 + 2j)
    assert lifted[1].coefficients == (1 + 1j, -1.5 - 2j)
    assert lifted[2].coefficients == (0.5 + 0j, -0.125 + 0j)
    assert all(type(v) is complex for jet in lifted for v in jet.coefficients)
    assert inversion_coeffs(lifted[0], G2).coefficients == (1 + 1j, 0.5 + 0j)
    # pure-float jets stay real floats
    floats = forward_binomial(Jet((1.0, 0.5)), Jet((2.0, -1.0)))
    assert floats.coefficients == (2.0, 0.0) and all(type(v) is float for v in floats.coefficients)


def test_gaussian_rational_eq_and_hash_agree_with_fraction():
    values = [
        2, Fraction(2), Fraction(4, 2), GaussianRational(2, 0),
        GaussianRational(Fraction(2), Fraction(0)), GaussianRational(Fraction(2), 0),
    ]
    for a in values:
        for b in values:
            assert a == b and b == a and not a != b, (a, b)
            assert hash(a) == hash(b), (a, b)
    others = [3, Fraction(5, 2), GaussianRational(2, 1), GaussianRational(Fraction(2), Fraction(-1, 3))]
    for a in values:
        for b in others:
            assert a != b and b != a and not a == b, (a, b)
    z = GaussianRational(Fraction(1, 3), Fraction(-1, 2))
    assert z == GaussianRational(Fraction(2, 6), Fraction(-2, 4))
    assert hash(z) == hash(GaussianRational(Fraction(2, 6), Fraction(-2, 4)))
    assert len({2, Fraction(2), GaussianRational(2, 0), z}) == 2
    assert (GaussianRational(1, 0) == 1.0) is False and GaussianRational(1, 0) != "1"


# Oracle for the jet functions: the textbook recurrences, one Fraction (or
# one pair of Fractions for a complex value) at a time.


def _pair(v):
    if isinstance(v, tuple):  # already a pair
        return v
    if isinstance(v, GaussianRational):
        return Fraction(v.re), Fraction(v.im)
    return Fraction(v), Fraction(0)


def _times(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _oracle_reciprocal(g):
    g = [_pair(v) for v in g]
    norm = g[0][0] ** 2 + g[0][1] ** 2
    inv0 = (g[0][0] / norm, -g[0][1] / norm)
    h = [inv0]
    for n in range(1, len(g)):
        acc = (Fraction(0), Fraction(0))
        for k in range(1, n + 1):
            t = _times(g[k], h[n - k])
            acc = (acc[0] + math.comb(n, k) * t[0], acc[1] + math.comb(n, k) * t[1])
        h.append(_times((-acc[0], -acc[1]), inv0))
    return h


def _oracle_convolution(x, y, phase):
    x, y = [_pair(v) for v in x], [_pair(v) for v in y]
    units = [(1, 0), (0, 1), (-1, 0), (0, -1)]  # i^k
    out = []
    for p in range(len(x)):
        acc = (Fraction(0), Fraction(0))
        for j in range(p + 1):
            t = _times(_times(units[j % 4] if phase else (1, 0), x[j]), y[p - j])
            acc = (acc[0] + math.comb(p, j) * t[0], acc[1] + math.comb(p, j) * t[1])
        out.append(_times(units[-p % 4], acc) if phase else acc)
    return out


def _draw(rng, n, gaussian=False):
    def one():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
    if gaussian:
        return [GaussianRational(Fraction(one()), Fraction(one())) for _ in range(n)]
    return [one() for _ in range(n)]


def _assert_same(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y) and x == y, (x, y)
        if isinstance(y, GaussianRational):
            assert type(x.re) is type(y.re) and type(x.im) is type(y.im), (x, y)
            assert (x.re, x.im) == (y.re, y.im), (x, y)


@pytest.mark.parametrize("order", [0, 1, 5, 13, 20])
def test_jet_functions_match_the_fraction_oracle(order):
    rng = random.Random(1600 + order)
    n = order + 1
    for trial in range(4):
        b, c = _draw(rng, n), _draw(rng, n)
        g0 = rng.choice([rng.randint(-9, -1), Fraction(-rng.randint(1, 10**6), rng.randint(1, 10**6)),
                         rng.randint(1, 9), Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))])
        G = Jet((g0,) + tuple(_draw(rng, order)))
        real = lambda pairs: [pr[0] for pr in pairs]  # noqa: E731
        gauss = lambda pairs: [GaussianRational(*pr) for pr in pairs]  # noqa: E731
        h = _oracle_reciprocal(G.coefficients)
        _assert_same(jet_reciprocal(G).coefficients, real(h))
        _assert_same(forward_binomial(Jet(tuple(b)), G).coefficients,
                     real(_oracle_convolution(b, G.coefficients, False)))
        _assert_same(inversion_coeffs(Jet(tuple(c)), G).coefficients,
                     real(_oracle_convolution(c, h, False)))
        # the phase functions on a real G, then on a G with a nonzero
        # imaginary row, each for a real and a complex first jet
        Gc = Jet(tuple(GaussianRational(Fraction(v), Fraction(u)) for v, u in
                       zip(G.coefficients, [0] + _draw(rng, order))))
        if trial == 0 and order > 0:
            assert any(v.im for v in Gc.coefficients)
        for GG in (G, Gc):
            hh = _oracle_reciprocal(GG.coefficients)
            for x in (b, _draw(rng, n, gaussian=True)):
                _assert_same(phase_forward_binomial(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, GG.coefficients, True)))
                _assert_same(phase_inversion_coeffs(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, hh, True)))


@given(
    st.lists(
        st.fractions(
            max_denominator=40,
            min_value=Fraction(-5),
            max_value=Fraction(5),
        ),
        min_size=2,
        max_size=8,
    ),
    st.lists(
        st.fractions(
            max_denominator=40,
            min_value=Fraction(-5),
            max_value=Fraction(5),
        ),
        min_size=1,
        max_size=8,
    ),
    st.fractions(max_denominator=20, min_value=Fraction(1, 4), max_value=Fraction(5)),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(b_tail, g_tail, g0):
    n = max(len(b_tail), len(g_tail) + 1)
    b = Jet(tuple(b_tail) + (Fraction(0),) * (n - len(b_tail)))
    G = Jet((g0,) + tuple(g_tail) + (Fraction(0),) * (n - 1 - len(g_tail)))
    assert inversion_coeffs(forward_binomial(b, G), G).coefficients == b.coefficients
    assert forward_binomial(inversion_coeffs(b, G), G).coefficients == b.coefficients


def test_jet_float_path():
    G = Jet((1.0, 0.5, -0.25))
    b = Jet((2.0, -1.0, 0.5))
    back = inversion_coeffs(forward_binomial(b, G), G)
    assert not back.exact
    for got, want in zip(back.coefficients, b.coefficients):
        assert got == pytest.approx(want, rel=1e-12)


def test_jet_validation():
    with pytest.raises(ValidationError):
        Jet(())
    with pytest.raises(ValidationError):
        forward_binomial(Jet((1, 2)), Jet((1, 2, 3)))


# ---------------------------------------------------------------------------
# Taylor machinery for the bump


def test_bump_taylor_zeroth_matches_evaluator():
    bump = make_bump01()
    for x in (0.1, 0.37, 0.5, 0.9):
        coeffs = bump01_taylor(x, 4)
        assert coeffs[0] == pytest.approx(bump.evaluator(x), rel=1e-13)


def test_bump_taylor_first_matches_central_difference():
    h = 1e-6
    bump = make_bump01()
    for x in (0.2, 0.37, 0.8):
        d1 = bump01_taylor(x, 1)[1]
        fd = (bump.evaluator(x + h) - bump.evaluator(x - h)) / (2 * h)
        assert d1 == pytest.approx(fd, rel=1e-6)
    # the bump is symmetric about 1/2, so the derivative vanishes there
    assert bump01_taylor(0.5, 1)[1] == 0.0


def test_bump_taylor_vanishes_at_shoulders():
    assert bump01_taylor(1e-4, 6) == (0.0,) * 7
    assert bump01_taylor(1.0 - 1e-4, 6) == (0.0,) * 7
    assert bump01_taylor(-0.5, 3) == (0.0,) * 4
    assert bump01_taylor(1.5, 3) == (0.0,) * 4


def test_derivative_function_requires_taylor_data():
    with pytest.raises(ValidationError):
        derivative_function(make_exp_power(1.0), 1)


def test_taylor_bound_check_bump_vs_factorials():
    rep = taylor_bound_check(make_bump01(), 10, make_sequence(GevreySpec(s=1.0)),
                             grid_points=400)
    assert rep.ok
    assert rep.h > 0 and math.isfinite(rep.norm)
    j = numerics.jsonable(rep)
    assert j["ok"] is True


def test_growth_fits_report_inf_past_the_float_range():
    # log m_p = -800 puts the fitted log h near 800, past the float range
    M = make_sequence(ExplicitSpec(log_m=(-800.0,), tail_rule="arithmetic", tail_value=0.0))
    fit = lambda_fit([1.0] * 12, M)
    assert fit.h == math.inf and math.isfinite(fit.C)
    rep = taylor_bound_check(make_bump01(), 10, M, grid_points=64)
    assert rep.h == math.inf and math.isfinite(rep.norm)
