"""Associated function, Poisson transform, and the auxiliary function G."""

import math

import numpy as np
import pytest

from momentgate import (
    DerivedSpec,
    EvaluationError,
    ExplicitSpec,
    GevreySpec,
    QGevreySpec,
    QuadratureError,
    ValidationError,
    associated_function,
    derive,
    g_log_modulus,
    make_sequence,
    omega_evaluator,
    poisson_transform,
    verify_g_decay,
    verify_g_window_bound,
    verify_poisson_lower_bound,
)
from momentgate.special_functions import associated_function_argmax

CATALAN = 0.915965594177219


def test_associated_function_factorial_closed_form():
    g1 = make_sequence(GevreySpec(s=1.0))
    # sup_p (p - log p!) is attained at p = 2: omega(e) = 2 - log 2
    assert associated_function(g1, math.e) == pytest.approx(
        2.0 - math.log(2.0), rel=1e-14
    )
    value, argmax = associated_function_argmax(g1, math.e)
    assert argmax == 2
    assert associated_function(g1, 0.0) == 0.0
    # below t = 1 every term p log t - log M_p is <= 0, so the sup is 0
    assert associated_function(g1, 0.5) == 0.0


def test_omega_evaluator_matches_direct_sup():
    seq = make_sequence(GevreySpec(s=1.5))
    omega = omega_evaluator(seq)
    for t in (0.3, 1.0, 2.0, 7.5, 40.0):
        direct = max(
            (p * math.log(t) - seq.log_M(p)) if t > 0 else 0.0
            for p in range(0, 400)
        )
        assert omega(t) == pytest.approx(max(direct, 0.0), rel=1e-12, abs=1e-12)
    assert omega(0.0) == 0.0
    assert omega(-3.0) == omega(3.0)  # even in t
    # below t = 1 the p = 0 term is -0.0; the envelope reports +0.0
    assert math.copysign(1.0, omega(0.3)) == 1.0
    assert math.copysign(1.0, associated_function(seq, 0.3)) == 1.0
    # so does the brute-force branch, for a sequence without (lc)
    bumpy = make_sequence(ExplicitSpec((0.5, 0.2, 0.9), "arithmetic", 0.3))
    assert math.copysign(1.0, associated_function(bumpy, 0.3)) == 1.0
    assert math.copysign(1.0, omega_evaluator(bumpy)(0.3)) == 1.0
    assert math.copysign(1.0, omega_evaluator(bumpy).many(np.array([0.3]))[0]) == 1.0
    # galloping from the previous argmax lands on the same envelope value
    for t in (0.3, 2.0, 40.0, 1e4, 7.5, 1.2):
        assert omega(t) == associated_function(seq, t)


def test_omega_evaluator_scale():
    seq = make_sequence(GevreySpec(s=1.0))
    doubled = omega_evaluator(seq, scale=2.0)
    plain = omega_evaluator(seq)
    assert doubled(1.7) == pytest.approx(plain(3.4), rel=1e-13)
    with pytest.raises(ValidationError):
        omega_evaluator(seq, scale=0.0)


def test_omega_evaluator_huge_argument_uses_closed_form():
    # the crossover index for gevrey(1) at t = 1e9 is near p = 1e9; only the
    # closed-form extension makes this reachable
    seq = make_sequence(GevreySpec(s=1.0))
    omega = omega_evaluator(seq)
    t = 1.0e9
    v = omega(t)
    # omega_{p!}(t) = t-ish scale: compare against the sup over a window near t
    direct = max(
        p * math.log(t) - seq.log_M_extended(p)
        for p in range(10**9 - 2, 10**9 + 3)
    )
    assert v == pytest.approx(direct, rel=1e-12)


def test_poisson_transform_constant_weight():
    # P of a constant is the constant: the kernel has unit mass
    res = poisson_transform(lambda t: 2.5, 1j, tol=1e-8)
    assert res.value == pytest.approx(2.5, abs=1e-7)
    assert res.abs_error <= 1e-7


def test_poisson_transform_log_weight_closed_form():
    # P[log(1+|t|)](i) = (log 2)/2 + 2 G / pi with G the Catalan constant
    res = poisson_transform(lambda t: math.log1p(abs(t)), 1j, tol=1e-8)
    closed = 0.5 * math.log(2.0) + 2.0 * CATALAN / math.pi
    assert res.value == pytest.approx(closed, abs=5e-8)


def test_poisson_transform_rejects_lower_half_plane():
    with pytest.raises(ValidationError):
        poisson_transform(lambda t: 1.0, 1.0 - 0.5j)
    with pytest.raises(ValidationError):
        poisson_transform(lambda t: 1.0, 1j, tol=0.0)


def test_poisson_transform_growing_weight_diverges():
    # weight ~ t^2 outruns the kernel decay; the shell bound cannot close
    with pytest.raises(QuadratureError):
        poisson_transform(lambda t: t * t, 1j, tol=1e-8, max_shells=12)


def test_g_log_modulus_negative_and_decaying():
    A = make_sequence(GevreySpec(s=2.0))
    v0 = g_log_modulus(A, 0.0, tol=1e-6)
    v8 = g_log_modulus(A, 8.0, tol=1e-6)
    assert v0 < 0  # |G| < 1 everywhere
    assert v8 < v0  # and decays along the real axis
    ones = make_sequence(
        ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0)
    )
    with pytest.raises(ValidationError):
        # M = 1 fails (nq): not admissible as an auxiliary sequence
        g_log_modulus(ones, 0.0)


def test_poisson_lower_bound_small_grid():
    A_hat = derive(make_sequence(GevreySpec(s=2.0)), "hat")
    omega = omega_evaluator(A_hat)
    grid = [complex(x, 1.0) for x in (-4.0, -1.0, 0.5, 3.0)]
    rep = verify_poisson_lower_bound(omega, grid, tol=1e-6, quad_tol=1e-7)
    assert rep.ok
    assert all(row[4] >= -1e-6 for row in rep.rows)


def test_g_decay_small_grid():
    A = make_sequence(GevreySpec(s=2.0))
    rep = verify_g_decay(A, [complex(x, 0.0) for x in (-5.0, 0.0, 2.0, 9.0)],
                         tol=1e-4, quad_tol=1e-7)
    assert rep.ok
    assert rep.sup <= rep.bound + 1e-4


def test_g_window_bound_small_set():
    A = make_sequence(GevreySpec(s=2.0))
    rep = verify_g_window_bound(A, [1.5, -3.0], tol=1e-6, quad_tol=1e-7, n_circle=8)
    assert rep.ok
    with pytest.raises(ValidationError):
        verify_g_window_bound(A, [0.2], tol=1e-6)
    with pytest.raises(ValidationError):
        verify_g_window_bound(A, [], tol=1e-6)


ARRAY_OMEGA_SPECS = (
    GevreySpec(s=1.5),
    QGevreySpec(q=2.0),
    # quotients not monotone: not (lc), evaluated by the brute-force sup
    ExplicitSpec(log_m=(0.4, 0.1, 0.9, 0.6), tail_rule="arithmetic", tail_value=0.5),
)


@pytest.mark.parametrize("spec", ARRAY_OMEGA_SPECS, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("scale", (1.0, 2.0))
def test_omega_many_matches_scalar_bit_for_bit(spec, scale):
    seq = make_sequence(spec)
    seq.log_M(3000)  # a partial prefix: nodes on both sides of its end
    omega = omega_evaluator(seq, scale=scale)
    rng = np.random.default_rng(7)
    ts = 10.0 ** rng.uniform(-3.0, 15.0, 25_000)
    ts[::3] *= -1.0
    ts = np.concatenate((ts, [0.0, -0.0, 1.0, -1.0, 0.5 / scale, 1.0 / scale]))
    got = omega.many(ts)
    want = np.array([omega(t) for t in ts.tolist()])
    # int64 views compare the bits, so -0.0 against +0.0 counts as a mismatch
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if seq.certifies("lc"):
        # the p = 0 term is -0.0 below u = 1; the envelope reports +0.0
        assert math.copysign(1.0, omega.many(np.array([0.3 / scale]))[0]) == 1.0


def test_omega_many_raises_past_the_reachable_index():
    # gevrey(1) crosses over near p = t; 2^60 is the closed-form reach
    omega = omega_evaluator(make_sequence(GevreySpec(s=1.0)))
    omega.many(np.array([2.0, 1e17]))
    with pytest.raises(EvaluationError, match="beyond index"):
        omega.many(np.array([2.0, 1e19]))
    with pytest.raises(EvaluationError, match="beyond index"):
        omega(1e19)


# (s, scale, z, P) for P[omega_{hat gevrey(s)}(scale |t|)](z) at tol 1e-7,
# as computed by the scipy.integrate.quad shells this quadrature replaced
QUAD_PINS = (
    (1.0, 1.0, complex(-10.0, 0.5), 3.4856495217825105),
    (1.0, 1.0, complex(-1.8367346938775508, 3.357142857142857), 2.8517509998643633),
    (1.0, 1.0, complex(4.2857142857142865, 3.7142857142857144), 3.42147405847407),
    (1.0, 2.0, complex(-7.959183673469388, 3.0), 6.33902405852382),
    (1.0, 2.0, complex(4.2857142857142865, 3.7142857142857144), 5.612954466011974),
    (2.0, 1.0, complex(-10.0, 0.5), 2.5912969659760647),
    # a kink of the weight (t = -1) sits in the end gap of a converged panel
    (2.0, 1.0, complex(-1.8367346938775508, 3.357142857142857), 1.9186956484166784),
    (2.0, 1.0, complex(8.367346938775512, 1.5714285714285714), 2.4678569553581564),
    (2.0, 2.0, complex(-3.8775510204081636, 0.8571428571428572), 2.394136499887649),
    (2.0, 2.0, complex(6.326530612244898, 2.642857142857143), 3.602434720481171),
)


def test_poisson_transform_matches_pinned_quad_values():
    evaluators = {}
    for s, scale, z, pinned in QUAD_PINS:
        if (s, scale) not in evaluators:
            A_hat = derive(make_sequence(GevreySpec(s=s)), "hat")
            evaluators[s, scale] = omega_evaluator(A_hat, scale=scale)
        res = poisson_transform(evaluators[s, scale], z, tol=1e-7)
        assert res.value == pytest.approx(pinned, rel=1e-7), (s, scale, z)
    # plain scalar weights against their closed forms at tol 1e-8
    assert poisson_transform(lambda t: 2.5, 0.4 + 1j, tol=1e-8).value == pytest.approx(2.5, rel=1e-8)
    closed = 0.5 * math.log(2.0) + 2.0 * CATALAN / math.pi
    res = poisson_transform(lambda t: math.log1p(abs(t)), 1j, tol=1e-8)
    assert res.value == pytest.approx(closed, rel=1e-8)


def test_derive_returns_one_object_per_op():
    A = make_sequence(GevreySpec(s=2.0))
    hat = derive(A, "hat")
    hat.log_M(5000)
    assert derive(A, "hat") is hat
    assert derive(A, "power", 0.5) is derive(A, "power", 0.5)
    assert derive(A, "power", 0.5) is not derive(A, "power", 2.0)
    assert derive(hat, "check") is derive(hat, "check")
    fresh = make_sequence(DerivedSpec("hat", GevreySpec(s=2.0)))
    reused = derive(A, "hat").log_M_array(6000)
    assert np.array_equal(reused.view(np.int64), fresh.log_M_array(6000).view(np.int64))
