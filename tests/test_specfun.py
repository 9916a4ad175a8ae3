"""Associated function, Poisson transform, and the auxiliary function G."""

import math

import pytest

from momentgate import (
    ExplicitSpec,
    GevreySpec,
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
