"""Moment quadrature, growth fits, jet inversion, and Taylor machinery."""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import (
    EvaluationError,
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


# x^(1/s) overflows past x = 2^(1024 s), so for s <= 0.2 the scale scan must
# end, on the envelope's word, before it reaches 2^240
@pytest.mark.parametrize("s", [0.1, 0.2, 1.0, 2.0, 3.0])
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


def test_quadrature_routines_take_keyword_arguments():
    # each routine runs inside one warnings filter, entered by a wrapper
    phi, bump = make_exp_power(1.0), make_bump01()
    assert moment_with_error(phi=phi, p=2) == moment_with_error(phi, 2)
    assert moment_origin(phi=bump, p=1) == moment_origin(bump, 1)
    assert laplace_sample(phi=phi, zeta=1j) == laplace_sample(phi, 1j)


def test_non_finite_integrand_values_are_one_evaluation_error():
    # a nan inside a panel used to come back as a nan moment and Laplace sample
    phi = make_user(
        lambda x: math.nan if 1.0 < x < 2.0 else math.exp(-x), 5.0, log_envelope=lambda x: -x
    )
    with pytest.raises(EvaluationError, match=r"^moment: integrand is nan at x = 1\.\d+$"):
        moment(phi, 1)
    with pytest.raises(EvaluationError, match=r"^laplace_sample: integrand is nan at x = 1\.\d+$"):
        laplace_sample(phi, 0.5j)
    spike = make_user(lambda x: math.inf if 0.3 < x < 0.6 else 0.0, 5.0, support=(0.0, 1.0))
    with pytest.raises(EvaluationError, match=r"^moment_origin: integrand is inf at x = 0\.\d+$"):
        moment_origin(spike, 0)
    with pytest.raises(EvaluationError, match="^user: evaluator overflowed at x = "):
        make_user(lambda x: math.exp(x), 5.0)


def test_nan_in_a_compact_moment_is_an_error_not_a_crash():
    # QUADPACK (scipy 1.17.1) died with SIGBUS on this nan; run it in a child
    # process so that a regression cannot take the test run down
    src = os.path.dirname(os.path.dirname(numerics.__file__))
    probe = (
        "import math\n"
        "from momentgate.errors import EvaluationError\n"
        "from momentgate.moments import make_user, moment_with_error\n"
        "phi = make_user(lambda x: math.nan if 0.3 < x < 0.6 else 0.0, 5.0, support=(0.0, 1.0))\n"
        "try:\n"
        "    moment_with_error(phi, 1)\n"
        "except EvaluationError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, (done.returncode, done.stderr)
    assert done.stdout.startswith("moment: integrand is nan at x = 0."), done.stdout


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
    dbump = derivative_function(bump)
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
    assert complex(GaussianRational(Fraction(1), Fraction(2))) == 1 + 2j


# Oracle for the jet functions: the textbook recurrences, one Fraction (or
# one pair of Fractions for a complex value) at a time. A float or complex
# entry enters as the exact binary rational it holds.


def _pair(v):
    if isinstance(v, tuple):  # already a pair
        return v
    if isinstance(v, GaussianRational):
        return Fraction(v.re), Fraction(v.im)
    if isinstance(v, complex):
        return Fraction(v.real), Fraction(v.imag)
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


def _draw_inexact(rng, n, cplx=False):
    def one():
        kind = rng.randrange(4)
        if kind == 0:
            return 0.0
        if kind == 1:
            return float(rng.randint(-9, 9))
        return rng.uniform(-10.0, 10.0) * 2.0 ** rng.randint(-20, 20)
    if cplx:
        return [complex(one(), one()) for _ in range(n)]
    return [one() for _ in range(n)]


def _rounded(pairs, cplx):
    """The oracle's values rounded once: int / int is correctly rounded."""
    def r(f):
        return f.numerator / f.denominator
    return [complex(r(a), r(b)) if cplx else r(a) for a, b in pairs]


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
        # in the first trial also (1 + i) Gc, whose constant term is complex
        Gz = Jet(tuple(GaussianRational(v.re - v.im, v.re + v.im) for v in Gc.coefficients))
        for GG in (G, Gc, Gz)[:3 if trial == 0 else 2]:
            hh = _oracle_reciprocal(GG.coefficients)
            if GG is not G:
                _assert_same(jet_reciprocal(GG).coefficients, gauss(hh))
            for x in (b, _draw(rng, n, gaussian=True)):
                _assert_same(phase_forward_binomial(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, GG.coefficients, True)))
                _assert_same(phase_inversion_coeffs(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, hh, True)))
                if GG is G and x is b:
                    continue
                # the plain functions on exact Gaussian inputs give GaussianRationals
                _assert_same(forward_binomial(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, GG.coefficients, False)))
                _assert_same(inversion_coeffs(Jet(tuple(x)), GG).coefficients,
                             gauss(_oracle_convolution(x, hh, False)))
        # float and complex draws next to exact ones: every entry is the
        # oracle's value on the same binary rationals, rounded once, a float
        # unless the function is a phase one or an input is complex
        Gf = Jet((float(g0),) + tuple(_draw_inexact(rng, order)))
        Gcf = Jet((complex(float(g0), rng.uniform(-2.0, 2.0)),) + tuple(_draw_inexact(rng, order, True)))
        for GG, inexact in ((G, False), (Gc, False), (Gf, True), (Gcf, True)):
            hh = _oracle_reciprocal(GG.coefficients)
            if inexact:
                _assert_same(jet_reciprocal(GG).coefficients, _rounded(hh, GG is Gcf))
            for x in (b, _draw_inexact(rng, n), _draw_inexact(rng, n, True)):
                if not inexact and x is b:
                    continue  # all exact, checked above
                cplx = any(isinstance(v, (complex, GaussianRational)) for v in x + list(GG.coefficients))
                _assert_same(forward_binomial(Jet(tuple(x)), GG).coefficients,
                             _rounded(_oracle_convolution(x, GG.coefficients, False), cplx))
                _assert_same(inversion_coeffs(Jet(tuple(x)), GG).coefficients,
                             _rounded(_oracle_convolution(x, hh, False), cplx))
                _assert_same(phase_forward_binomial(Jet(tuple(x)), GG).coefficients,
                             _rounded(_oracle_convolution(x, GG.coefficients, True), True))
                _assert_same(phase_inversion_coeffs(Jet(tuple(x)), GG).coefficients,
                             _rounded(_oracle_convolution(x, hh, True), True))


def test_jets_mixing_fractions_and_gaussian_rationals_give_gaussian_rationals():
    b, G = Jet((1, 2)), Jet((1, GaussianRational(0, 1)))
    c = forward_binomial(b, G)
    # c_1 = b_0 G_1 + b_1 G_0 = 2 + i
    _assert_same(c.coefficients, [GaussianRational(Fraction(1), Fraction(0)),
                                  GaussianRational(Fraction(2), Fraction(1))])
    _assert_same(inversion_coeffs(c, G).coefficients,
                 [GaussianRational(Fraction(v), Fraction(0)) for v in (1, 2)])
    _assert_same(jet_reciprocal(Jet((Fraction(1, 2), GaussianRational(2, 0)))).coefficients,
                 [GaussianRational(Fraction(2), Fraction(0)),
                  GaussianRational(Fraction(-8), Fraction(0))])
    _assert_same(forward_binomial(Jet((1, 2)), Jet((Fraction(3), 1))).coefficients,
                 [Fraction(3), Fraction(7)])


def test_complex_zero_constant_term_is_refused():
    zero = GaussianRational(Fraction(0), Fraction(0))
    for G in (Jet((zero, GaussianRational(1, 1))), Jet((zero, 1)), Jet((zero,))):
        for call in (jet_reciprocal, lambda g: inversion_coeffs(Jet((1,) * len(g.coefficients)), g),
                     lambda g: phase_inversion_coeffs(Jet((1,) * len(g.coefficients)), g)):
            with pytest.raises(ValidationError, match="constant term must be nonzero"):
                call(G)


def test_zero_constant_term_is_refused_with_one_message():
    # real and Gaussian zeros of every entry type, as a Jet built by hand and
    # as the exact result of another jet function
    zeros = (0, Fraction(0), 0.0, -0.0, 0j, GaussianRational(Fraction(0), Fraction(0)))
    jets = [Jet((z,) + (Fraction(1, 3),) * k) for z in zeros for k in (0, 1, 3)]
    jets.append(forward_binomial(Jet((0, 1, Fraction(1, 2))), Jet((Fraction(-2), 1, 1))))
    jets.append(phase_forward_binomial(Jet((0, 1)), Jet((GaussianRational(1, 1), 1))))
    for G in jets:
        c = Jet((Fraction(2),) * (G.order + 1))
        for call in (jet_reciprocal, lambda g: inversion_coeffs(c, g),
                     lambda g: phase_inversion_coeffs(c, g)):
            with pytest.raises(ValidationError) as info:
                call(G)
            assert str(info.value) == "jet_reciprocal: constant term must be nonzero"


def test_exact_zeros_round_to_positive_zero():
    # g0 < 0 with an odd number of entries used to give the reciprocal a
    # negative denominator, and a / d kept its sign for a = 0
    got = inversion_coeffs(Jet((0.0, 0.0, 1.0)), Jet((-3, 0, 0))).coefficients
    assert got == (0.0, 0.0, -1 / 3)
    assert [math.copysign(1.0, v) for v in got] == [1.0, 1.0, -1.0]
    got = jet_reciprocal(Jet((-2.0, 0.0, 0.0))).coefficients
    assert got == (-0.5, 0.0, 0.0)
    assert [math.copysign(1.0, v) for v in got] == [-1.0, 1.0, 1.0]
    (z,) = phase_inversion_coeffs(Jet((-1.8369727593227116,)), Jet((-9,))).coefficients
    assert z == -1.8369727593227116 / -9 and math.copysign(1.0, z.imag) == 1.0


def _laziness_inputs():
    """(x, G) pairs: A5 draws, the oracle test's draws (G, Gc, Gz and the
    float and complex Gf, Gcf), and float/exact mixes."""
    rng = random.Random(5)
    pairs = []
    for _ in range(3):
        b = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(13))
        G = (Fraction(rng.randint(1, 40), rng.randint(1, 20)),) + tuple(
            Fraction(rng.randint(-50, 50), rng.randint(1, 25)) for _ in range(12))
        pairs.append((b, G))
    for order in (0, 1, 5, 13):
        rng = random.Random(2600 + order)
        n = order + 1
        g0 = rng.choice([rng.randint(-9, -1), Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))])
        G = (g0,) + tuple(_draw(rng, order))
        Gc = tuple(GaussianRational(Fraction(v), Fraction(u)) for v, u in zip(G, [0] + _draw(rng, order)))
        Gz = tuple(GaussianRational(v.re - v.im, v.re + v.im) for v in Gc)
        Gf = (float(g0),) + tuple(_draw_inexact(rng, order))
        Gcf = (complex(float(g0), 1.5),) + tuple(_draw_inexact(rng, order, True))
        xs = (_draw(rng, n), _draw(rng, n, gaussian=True), _draw_inexact(rng, n),
              _draw(rng, n)[:-1] + [0.25])
        pairs += [(tuple(x), GG) for GG in (G, Gc, Gz, Gf, Gcf) for x in xs]
    return pairs


def _assert_indistinguishable(lazy, eager):
    assert dataclasses.is_dataclass(lazy) and lazy.order == eager.order
    assert hash(lazy) == hash(eager) and lazy == eager and eager == lazy
    assert repr(lazy) == repr(eager)
    assert lazy.to_json() == eager.to_json()
    assert numerics.jsonable(lazy) == numerics.jsonable(eager)
    assert lazy.exact == eager.exact
    _assert_same(lazy.coefficients, eager.coefficients)
    # one entry type per jet, and exact complex entries have Fraction parts
    assert len({type(v) for v in lazy.coefficients}) == 1
    for v in lazy.coefficients:
        assert type(v) in (Fraction, GaussianRational, float, complex)
        if isinstance(v, GaussianRational):
            assert type(v.re) is Fraction and type(v.im) is Fraction, v


def _outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as e:
        return str(e)


def test_a_result_fed_to_the_next_jet_function_acts_as_its_coefficients():
    unary = [jet_reciprocal]
    binary = [forward_binomial, inversion_coeffs, phase_forward_binomial, phase_inversion_coeffs]
    for x, G in _laziness_inputs():
        x, G = Jet(x), Jet(G)
        for first in unary + binary:
            args = (G,) if first is jet_reciprocal else (x, G)
            out = _outcome(first, *args)
            if isinstance(out, str):
                continue
            # each chain runs on the result as returned, then on a Jet built
            # from its coefficients, which reads them
            chains = [lambda j: jet_reciprocal(j)]
            for f in binary:
                chains += [lambda j, f=f: f(j, G), lambda j, f=f: f(x, j)]
            lazy = [_outcome(chain, out) for chain in chains]
            copy = Jet(out.coefficients)
            _assert_indistinguishable(_outcome(first, *args), copy)
            for chain, got in zip(chains, lazy):
                want = _outcome(chain, copy)
                if isinstance(want, str):
                    assert got == want
                else:
                    _assert_indistinguishable(got, want)


def test_jet_results_stay_frozen_and_rows_are_kept_only_for_tuples():
    G = Jet((Fraction(1), Fraction(1)))
    out = forward_binomial(Jet((Fraction(1), Fraction(2))), G)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.coefficients = (1, 2)
    assert dataclasses.fields(out)[0].name == "coefficients"
    with pytest.raises(AttributeError):
        out.missing
    values = [Fraction(1), Fraction(2)]
    b = Jet(values)
    first = forward_binomial(b, G)
    values[1] = Fraction(5)
    assert forward_binomial(b, G) == forward_binomial(Jet(tuple(values)), G) != first


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


def test_jet_reciprocal_overflows_to_signed_infinities():
    # 1/g0, -g1/g0^2 and 2 g1^2/g0^3 for g0 = 1e-320 all exceed the float range
    h = jet_reciprocal(Jet((1e-320, 1.0, 0.0))).coefficients
    assert h == (math.inf, -math.inf, math.inf)
    assert all(type(v) is float for v in h)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
def test_jet_functions_refuse_non_finite_entries(bad):
    good, worse = Jet((1.0, 0.5)), Jet((1.0, bad))
    calls = [lambda: jet_reciprocal(worse)]
    for f in (forward_binomial, inversion_coeffs, phase_forward_binomial, phase_inversion_coeffs):
        calls += [lambda f=f: f(good, worse), lambda f=f: f(worse, good)]
    for call in calls:
        with pytest.raises(ValidationError, match="Jet: entries must be finite"):
            call()
    assert Jet((1.0, bad)).coefficients[1] is bad  # a Jet itself still holds it


def test_jet_functions_refuse_entries_of_other_types():
    # neither has as_integer_ratio; a numpy integer's own int64 arithmetic wraps
    for bad in (np.int64(2), "1"):
        with pytest.raises(ValidationError, match="entries must be int, Fraction"):
            forward_binomial(Jet((bad, 1)), Jet((1.0, 0.5)))


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
        derivative_function(make_exp_power(1.0))


def test_taylor_bound_check_bump_vs_factorials():
    rep = taylor_bound_check(make_bump01(), 10, make_sequence(GevreySpec(s=1.0)))
    assert rep.ok
    assert rep.h > 0 and math.isfinite(rep.norm)
    j = numerics.jsonable(rep)
    assert j["ok"] is True


def test_growth_fits_report_inf_past_the_float_range():
    # log m_p = -800 puts the fitted log h near 800, past the float range
    M = make_sequence(ExplicitSpec(log_m=(-800.0,), tail_rule="arithmetic", tail_value=0.0))
    fit = lambda_fit([1.0] * 12, M)
    assert fit.h == math.inf and math.isfinite(fit.C)
    rep = taylor_bound_check(make_bump01(), 10, M)
    assert rep.h == math.inf and math.isfinite(rep.norm)
