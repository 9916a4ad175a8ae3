"""Associated function, Poisson transform, and the auxiliary function G."""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from momentgate import (
    DerivedSpec,
    EvaluationError,
    Example38Spec,
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
from momentgate import special_functions
from momentgate.conditions import check_condition
from momentgate.numerics import log_array
from momentgate.sequences import BIG_INDEX_LIMIT
from momentgate.special_functions import _crossings, _integrate

CATALAN = 0.915965594177219


def test_associated_function_factorial_closed_form():
    g1 = make_sequence(GevreySpec(s=1.0))
    # sup_p (p - log p!) is attained at p = 2: omega(e) = 2 - log 2
    assert associated_function(g1, math.e) == pytest.approx(
        2.0 - math.log(2.0), rel=1e-14
    )
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
    # so does a sequence without (lc), searched on its hull slopes
    bumpy = make_sequence(ExplicitSpec((0.5, 0.2, 0.9), "arithmetic", 0.3))
    assert math.copysign(1.0, associated_function(bumpy, 0.3)) == 1.0
    assert math.copysign(1.0, omega_evaluator(bumpy)(0.3)) == 1.0
    assert math.copysign(1.0, omega_evaluator(bumpy).many(np.array([0.3]))[0]) == 1.0
    # calls in any order, down as well as up, land on the same envelope value
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
    p = np.arange(10**9 - 2, 10**9 + 3)
    direct = (p * math.log(t) - seq.log_M_extended(p)).max()
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
        poisson_transform(lambda t: t * t, 1j, tol=1e-8)


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
    rep = verify_g_window_bound(A, [1.5, -3.0], tol=1e-6, quad_tol=1e-7)
    assert rep.ok
    with pytest.raises(ValidationError):
        verify_g_window_bound(A, [0.2], tol=1e-6)
    with pytest.raises(ValidationError):
        verify_g_window_bound(A, [], tol=1e-6)


ARRAY_OMEGA_SPECS = (
    GevreySpec(s=1.5),
    QGevreySpec(q=2.0),
    # quotients not monotone: not (lc), searched on their isotonic regression
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


# (spec, log10 of the largest |t| drawn) for the omega pins: every |t| at
# scale 2 stays inside the reachable index range (example38's family stops
# at the cumulative limit; q_gevrey's crossovers stay below p = 4000)
OMEGA_PIN_SPECS = {
    "q_gevrey_2": (QGevreySpec(q=2.0), 300.0),
    "q_gevrey_1.1": (QGevreySpec(q=1.1), 300.0),
    "power_q_gevrey": (DerivedSpec("power", QGevreySpec(q=1.5), 2.0), 300.0),
    "example38": (Example38Spec(), 16.5),
    "hat_example38": (DerivedSpec("hat", Example38Spec()), 22.8),
    "power_example38": (DerivedSpec("power", Example38Spec(), 0.6), 9.8),
    "hat_hat_gevrey": (DerivedSpec("hat", DerivedSpec("hat", GevreySpec(s=0.7))), 48.0),
}

# (sha256 of the float64 bytes of many(ts), len(seq._prefix) afterwards) per
# (name, prefix materialized beforehand, scale)
OMEGA_PINS = {
    ("example38", 0, 1.0): ("882d3ef6f38e2c7d24548f1904fee8f8e6693938242ac92b37ec55da994c0834", 1186996),
    ("example38", 0, 2.0): ("41e866a3f94f8dfaba4ebdef5a063b5ac62ccdfc3c75dd70fd15eefe4d7f7258", 1678665),
    ("example38", 3000, 1.0): ("882d3ef6f38e2c7d24548f1904fee8f8e6693938242ac92b37ec55da994c0834", 1186996),
    ("example38", 3000, 2.0): ("41e866a3f94f8dfaba4ebdef5a063b5ac62ccdfc3c75dd70fd15eefe4d7f7258", 1678665),
    ("hat_example38", 0, 1.0): ("6aa37e2d68850c3660e9a3a172af6488218ba767694b96f96977c1ea32954aa4", 1408666),
    ("hat_example38", 0, 2.0): ("8d40e3ce0f50ddb6c2351e1b6aa17a2470f340326c6c4f0c6ad7377d252cd49e", 1774808),
    ("hat_example38", 3000, 1.0): ("6aa37e2d68850c3660e9a3a172af6488218ba767694b96f96977c1ea32954aa4", 1408666),
    ("hat_example38", 3000, 2.0): ("8d40e3ce0f50ddb6c2351e1b6aa17a2470f340326c6c4f0c6ad7377d252cd49e", 1774808),
    ("hat_hat_gevrey", 0, 1.0): ("f2812a5e13bf33ac0fc6802d61cbe32ff63e4bb4938a61867d90349b8cfa2ad9", 65537),
    ("hat_hat_gevrey", 0, 2.0): ("386cd5cbbaf61eb4d6067265a0b48d6efbac0ce98d8a167c59f71b3e36c6434f", 65037),
    ("hat_hat_gevrey", 3000, 1.0): ("f2812a5e13bf33ac0fc6802d61cbe32ff63e4bb4938a61867d90349b8cfa2ad9", 65537),
    ("hat_hat_gevrey", 3000, 2.0): ("386cd5cbbaf61eb4d6067265a0b48d6efbac0ce98d8a167c59f71b3e36c6434f", 65037),
    ("power_example38", 0, 1.0): ("630c57599e3244a0cf62e95f4ca15c3207344f3e4a6010e05a4c71c902a43c06", 978940),
    ("power_example38", 0, 2.0): ("5062e5bbb63d83ce04ad62d7f69ed418efe3381f362fc9974d30cd6a845a376b", 1744271),
    ("power_example38", 3000, 1.0): ("630c57599e3244a0cf62e95f4ca15c3207344f3e4a6010e05a4c71c902a43c06", 978940),
    ("power_example38", 3000, 2.0): ("5062e5bbb63d83ce04ad62d7f69ed418efe3381f362fc9974d30cd6a845a376b", 1744271),
    ("power_q_gevrey", 0, 1.0): ("feb4c7f640d988c94f16d8ad2421c3a17a69e2618829fcff10760450d25d4631", 429),
    ("power_q_gevrey", 0, 2.0): ("76c09daeb07b37eb937d560c095495f3d2666bfb1e86819ed851ea8351f0536b", 429),
    ("power_q_gevrey", 3000, 1.0): ("feb4c7f640d988c94f16d8ad2421c3a17a69e2618829fcff10760450d25d4631", 3001),
    ("power_q_gevrey", 3000, 2.0): ("76c09daeb07b37eb937d560c095495f3d2666bfb1e86819ed851ea8351f0536b", 3001),
    ("q_gevrey_1.1", 0, 1.0): ("70873c73343b3386531c567efbecb272a8ef082cd538cda8fc13dbfe5b14d85e", 3625),
    ("q_gevrey_1.1", 0, 2.0): ("21f100c579fc3226da8917b7afb1a5c45005cf7abe93a3fbd8e7c67455528beb", 3629),
    ("q_gevrey_1.1", 3000, 1.0): ("70873c73343b3386531c567efbecb272a8ef082cd538cda8fc13dbfe5b14d85e", 3625),
    ("q_gevrey_1.1", 3000, 2.0): ("21f100c579fc3226da8917b7afb1a5c45005cf7abe93a3fbd8e7c67455528beb", 3629),
    ("q_gevrey_2", 0, 1.0): ("92d0750803ed93f418c99a62b233e42a471e2e4764065d50c600a99df842a1e0", 501),
    ("q_gevrey_2", 0, 2.0): ("f243175e37c5e74fa18ed2e139f810563b2bdbe5ba808c0a6546ff160d948ad5", 502),
    ("q_gevrey_2", 3000, 1.0): ("92d0750803ed93f418c99a62b233e42a471e2e4764065d50c600a99df842a1e0", 3001),
    ("q_gevrey_2", 3000, 2.0): ("f243175e37c5e74fa18ed2e139f810563b2bdbe5ba808c0a6546ff160d948ad5", 3001),
}


def _omega_pin_nodes(spec, top):
    """Nodes spread over 1e-3 .. 10^top, with clusters around quotients near
    the prefix ends these pins start from and near the closed-form switch."""
    rng = np.random.default_rng(11)
    ts = 10.0 ** rng.uniform(-3.0, top, 3000)
    ref = make_sequence(spec)  # a separate object: the pinned one starts untouched
    for p in (40, 2999, 3001, 65535, 70000):
        log_c = ref.log_m(p)
        if log_c < top * math.log(10.0) - 1.0:
            ts = np.concatenate((ts, math.exp(log_c) * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, 200))))
    ts[::4] *= -1.0
    return np.concatenate((ts, [0.0, -0.0, 1.0, 0.5]))


@pytest.mark.parametrize("name", sorted(OMEGA_PIN_SPECS))
@pytest.mark.parametrize("prefix", (0, 3000))
@pytest.mark.parametrize("scale", (1.0, 2.0))
def test_omega_many_bits_are_pinned(name, prefix, scale):
    spec, top = OMEGA_PIN_SPECS[name]
    ts = _omega_pin_nodes(spec, top)
    seq = make_sequence(spec)
    if prefix:
        seq.log_M(prefix)
    got = omega_evaluator(seq, scale=scale).many(ts)
    digest = hashlib.sha256(got.tobytes()).hexdigest()
    assert (digest, len(seq._prefix)) == OMEGA_PINS[name, prefix, scale]


def _plain_crossing(seq, log_u, start, cap):
    """The smallest p in (start, cap] with log m_p >= log_u, else cap + 1,
    by galloping from start and then bisecting, one probe at a time."""
    lo, hi = start, cap + 1
    while hi - lo > 1:
        p = min(2 * lo + 2, cap) if hi > cap else (lo + hi) // 2
        if seq.log_m_fast(np.array([p]))[0] >= log_u:
            hi = p
        else:
            lo = p
    return hi


# (spec, prefix materialized beforehand, cap, largest index a log u aims at)
CROSSING_CASES = (
    (DerivedSpec("hat", GevreySpec(s=1.0)), 3000, 2**60, 2**61),  # past the cap too
    (GevreySpec(s=0.3), 1, 2**60, 10**17),
    (QGevreySpec(q=1.1), 0, 2**60, 10**9),  # a secant overshoots far past the crossover
    (Example38Spec(), 50, BIG_INDEX_LIMIT - 2, BIG_INDEX_LIMIT),
)


@pytest.mark.parametrize(
    "spec, prefix, cap, top", CROSSING_CASES, ids=("hat_gevrey", "gevrey", "q_gevrey", "example38")
)
def test_crossings_match_the_plain_search(spec, prefix, cap, top):
    # the secant and chord aims only choose the probes: every crossover is
    # the one a plain gallop-and-bisect search finds
    seq = make_sequence(spec)
    if prefix:
        seq.log_M(prefix)
    start = len(seq._prefix) - 2
    log_m_start = seq.log_m(start) if start >= 0 else math.nan
    rng = np.random.default_rng(5)
    ps = np.unique(np.exp(rng.uniform(0.0, math.log(top), 60)).astype(np.int64))
    ps = np.append(ps[ps > start], min(top, cap))
    ends = seq.log_m_fast(np.minimum(ps, cap))
    # quotients themselves (ties at the crossover), points next to them, and
    # the next float past the last one, which has no crossover if that is
    # log m_cap
    jitter = 1e-9 * rng.uniform(-1.0, 1.0, ends.size)
    log_u = np.concatenate((ends, ends + jitter, [np.nextafter(ends[-1], np.inf)]))
    log_u = log_u[log_u > log_m_start] if start >= 0 else log_u
    got = _crossings(seq, log_u, start, cap, log_m_start)
    want = [_plain_crossing(seq, v, start, cap) for v in log_u.tolist()]
    assert got.tolist() == want


def test_omega_many_raises_past_the_reachable_index():
    # gevrey(1) crosses over near p = t; 2^60 is the closed-form reach
    omega = omega_evaluator(make_sequence(GevreySpec(s=1.0)))
    omega.many(np.array([2.0, 1e17]))
    with pytest.raises(EvaluationError, match="beyond index"):
        omega.many(np.array([2.0, 1e19]))
    with pytest.raises(EvaluationError, match="beyond index"):
        omega(1e19)


def test_omega_many_raises_at_once_for_a_non_finite_argument(monkeypatch):
    # with (lc) or without, the first non-finite |t| is named before any
    # search, which for an infinite |t| would gallop all the way to the cap
    convex = make_sequence(GevreySpec(s=1.0))
    bumpy = make_sequence(ExplicitSpec((0.4, 0.1, 0.9, 0.6), "arithmetic", 0.5))
    monkeypatch.setattr(special_functions, "_crossings", None)  # never reached
    for seq, cap in ((convex, 2**60), (bumpy, BIG_INDEX_LIMIT - 2)):
        omega = omega_evaluator(seq)
        for bad in (math.inf, -math.inf, math.nan):
            name = "nan" if math.isnan(bad) else "inf"
            message = f"^associated function argmax beyond index {cap} at t = {name}$"
            with pytest.raises(EvaluationError, match=message):
                omega(bad)
            with pytest.raises(EvaluationError, match=message):
                omega.many(np.array([2.0, 1e30, bad, math.nan]))


def test_omega_without_lc_reaches_the_cumulative_limit():
    # without (lc) the search reads only the prefix, grown 4x at a time up
    # to index BIG_INDEX_LIMIT; an explicit spec has no closed form past it
    seq = make_sequence(ExplicitSpec((0.4, 0.1, 0.9, 0.6), "arithmetic", 1e-5))
    omega = omega_evaluator(seq)
    u = math.exp(15.6)
    f = np.arange(2_000_000, dtype=float) * math.log(u) - seq.log_M_array(1_999_999)
    assert int(np.argmax(f)) == 1_500_003  # past 2^20
    assert omega(u) == f.max()
    with pytest.raises(EvaluationError, match="beyond index"):
        omega(math.exp(25.6))


def test_omega_window_stays_inside_the_cumulative_limit():
    # example38 has (lc) but no closed-form log M: the +-2 window around a
    # crossover reads the prefix, so the reach stops two short of the limit
    ref = make_sequence(Example38Spec())
    lm = [ref.log_m(p) for p in (1_999_997, 1_999_998, 1_999_999)]
    # crossovers at p = 1999998 and p = 1999999
    inside, past = (math.exp(0.5 * (a + b)) for a, b in zip(lm, lm[1:]))
    omega = omega_evaluator(make_sequence(Example38Spec()))
    with pytest.raises(EvaluationError, match="beyond index 1999998"):
        omega(past)  # searched past the prefix
    assert omega(inside) == omega_evaluator(ref)(inside) > 0.0
    with pytest.raises(EvaluationError, match="beyond index 1999998"):
        omega(past)  # read from the prefix, now grown to the limit


def _hull_reference_specs():
    """name -> (spec, top, log u range or None) for the omega reference test:
    seeded random explicit heads with arithmetic and power tails, and hat,
    check and power of them, none of them certified (lc). `top` bounds the
    brute-force sup; None draws log u up to log m at top/2, which for these
    tails (increasing from some small p on) puts every maximum below top."""
    rng = np.random.default_rng(3)
    specs = {}
    for k in range(3):
        head = tuple(rng.uniform(-1.0, 3.0, int(rng.integers(5, 40))).tolist())
        for rule, value in (("arithmetic", rng.uniform(0.05, 0.5)), ("power", rng.uniform(1.5, 3.0))):
            x = ExplicitSpec(head, rule, float(value))
            specs[f"{rule}{k}"] = (x, 16384, None)
            specs[f"hat_{rule}{k}"] = (DerivedSpec("hat", x), 16384, None)
            specs[f"check_{rule}{k}"] = (DerivedSpec("check", x), 16384, None)
            specs[f"power_{rule}{k}"] = (DerivedSpec("power", x, float(rng.uniform(0.5, 2.0))), 16384, None)
    specs["dc_gevrey_2"] = (DerivedSpec("dc_minorant", GevreySpec(s=2.0)), 16384, None)
    specs["hat_dc_gevrey_1.3"] = (DerivedSpec("hat", DerivedSpec("dc_minorant", GevreySpec(s=1.3))), 16384, None)
    # log m_p = log(p+1), but check does not certify (lc): crossovers past
    # the closed-form switch at p = 65536, after three 4x prefix growths
    specs["check_gevrey_2"] = (DerivedSpec("check", GevreySpec(s=2.0)), 262144, (math.log(65537.0), math.log(1.3e5)))
    return specs


HULL_REFERENCE_SPECS = _hull_reference_specs()


def _brute_force_sup(log_M, log_u):
    """max(0, max over p of p log u - log M_p) + 0.0 at each log u, and the
    first p where the inner max is attained."""
    index = np.arange(log_M.size, dtype=float)
    value, where = np.empty(log_u.size), np.empty(log_u.size, np.int64)
    for i in range(0, log_u.size, 64):
        f = index * log_u[i : i + 64, None] - log_M
        where[i : i + 64] = f.argmax(axis=1)
        value[i : i + 64] = f.max(axis=1)
    return np.maximum(value, 0.0) + 0.0, where


@pytest.mark.parametrize("name", sorted(HULL_REFERENCE_SPECS))
@pytest.mark.parametrize("scale", (1.0, 2.0))
def test_omega_without_lc_matches_a_brute_force_sup(name, scale):
    # the search reads the slopes of the lower convex hull of p -> log M_p,
    # the isotonic regression of the quotients; the sup it finds is the one
    # a scan over every p finds
    from scipy.optimize import isotonic_regression

    spec, top, span = HULL_REFERENCE_SPECS[name]
    ref = make_sequence(spec)
    log_M = ref.log_M_array(top)
    assert not ref.certifies("lc")
    rng = np.random.default_rng(17)
    if span is None:
        q = ref.log_m_array(top // 2)
        span = (q.min() - 1.0, min(q[-1], 700.0))
    u = np.exp(rng.uniform(*span, 1000 if top <= 16384 else 200))
    # at a pooled slope of the hull the two ends of its edge tie exactly:
    # nodes at it and at its float neighbours
    hull = isotonic_regression(ref.log_m_array(top - 1))
    pooled = hull.x[hull.blocks[:-1][hull.weights > 1]]
    ties = np.exp(pooled[pooled < span[1]])
    ties = np.concatenate([ties] + [np.nextafter(ties, sign * np.inf) for sign in (-1, 1)])
    if "gevrey" not in name:
        assert ties.size  # a random head pools somewhere
    nodes = np.concatenate((u, ties))
    got = omega_evaluator(make_sequence(spec), scale=scale).many(nodes / scale)  # dividing by 2 is exact
    want, where = _brute_force_sup(log_M, np.array([math.log(v) for v in nodes.tolist()]))
    assert where.max() < top - 2  # every sup lies inside the scan
    assert np.array_equal(got[: u.size].view(np.int64), want[: u.size].view(np.int64))
    np.testing.assert_allclose(got[u.size :], want[u.size :], rtol=1e-14, atol=0.0)


def test_omega_search_without_lc_imports_scipy_optimize_lazily():
    # the isotonic regression comes from scipy.optimize, imported on the
    # first search of a sequence without (lc); (lc) sequences never load it
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "from momentgate import DerivedSpec, ExplicitSpec, GevreySpec, make_sequence, omega_evaluator\n"
        "omega_evaluator(make_sequence(DerivedSpec('hat', GevreySpec(s=1.0)))).many(np.array([2.0, 1e6]))\n"
        "print('scipy.optimize' in sys.modules)\n"
        "omega_evaluator(make_sequence(ExplicitSpec((0.4, 0.1), 'arithmetic', 0.5))).many(np.array([2.0]))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(special_functions.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_associated_function_is_the_evaluators_scalar_call():
    seq = make_sequence(GevreySpec(s=1.0))
    assert associated_function(seq, 2e5) == omega_evaluator(seq)(2e5)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="^associated_function:"):
            associated_function(seq, t)


# (s, scale, z, P, shells, radius, value bits, error bits) for
# P[omega_{hat gevrey(s)}(scale |t|)](z) at tol 1e-7: P as computed by the
# scipy.integrate.quad shells this quadrature replaced, shells and radius as
# the shells reach them one _integrate call at a time, and float.hex of the
# PoissonResult's value and abs_error as the G7/K15 shells compute them, with
# the points taken in this order (omega values read the prefix earlier points
# grew). The s = 1 points search crossovers far past the prefix.
QUAD_PINS = (
    (1.0, 1.0, complex(-10.0, 0.5), 3.4856495217825105, 46, 281474976710656.0,
     "0x1.be29c375790f6p+1", "0x1.7e8b6c362e17bp-24"),
    (1.0, 1.0, complex(-1.8367346938775508, 3.357142857142857), 2.8517509998643633, 50, 1.5119227320458094e16,
     "0x1.6d062d3e49d67p+1", "0x1.0a5437e7f04d3p-23"),
    (1.0, 1.0, complex(4.2857142857142865, 3.7142857142857144), 3.42147405847407, 50, 1.67276557588047e16,
     "0x1.b5f2dc90121a7p+1", "0x1.c6ce19ffce10ep-23"),
    (1.0, 2.0, complex(-7.959183673469388, 3.0), 6.33902405852382, 49, 6755399441055744.0,
     "0x1.95b291f36fe69p+2", "0x1.fe818518e2e22p-23"),
    (1.0, 2.0, complex(4.2857142857142865, 3.7142857142857144), 5.612954466011974, 50, 1.67276557588047e16,
     "0x1.673aa513fa1fdp+2", "0x1.5895934b0949ap-22"),
    (2.0, 1.0, complex(-10.0, 0.5), 2.5912969659760647, 35, 137438953472.0,
     "0x1.4baf9e758f1aap+1", "0x1.ce98960d00e80p-25"),
    # a kink of the weight (t = -1) sits in the end gap of a converged panel
    (2.0, 1.0, complex(-1.8367346938775508, 3.357142857142857), 1.9186956484166784, 38, 3691217607533.7144,
     "0x1.eb2fa3557280cp+0", "0x1.5e8d3297cf2adp-25"),
    (2.0, 1.0, complex(8.367346938775512, 1.5714285714285714), 2.4678569553581564, 37, 863901993252.5714,
     "0x1.3be2bc99b5d7ep+1", "0x1.ace1170159b45p-25"),
    (2.0, 2.0, complex(-3.8775510204081636, 0.8571428571428572), 2.394136499887649, 37, 549755813888.0,
     "0x1.327310993920cp+1", "0x1.8f4f1c473eb6ap-25"),
    (2.0, 2.0, complex(6.326530612244898, 2.642857142857143), 3.602434720481171, 37, 1452926079561.1428,
     "0x1.cd1c94b79cd45p+1", "0x1.456dcdfb017c7p-24"),
)


def test_poisson_transform_matches_pinned_quad_values():
    evaluators = {}
    for s, scale, z, pinned, shells, radius, value_bits, error_bits in QUAD_PINS:
        if (s, scale) not in evaluators:
            A_hat = derive(make_sequence(GevreySpec(s=s)), "hat")
            evaluators[s, scale] = omega_evaluator(A_hat, scale=scale)
        res = poisson_transform(evaluators[s, scale], z, tol=1e-7)
        assert res.value == pytest.approx(pinned, rel=1e-7), (s, scale, z)
        assert (res.value.hex(), res.abs_error.hex()) == (value_bits, error_bits), (s, scale, z)
        assert (res.shells, res.radius) == (shells, radius), (s, scale, z)
    # plain scalar weights against their closed forms at tol 1e-8
    assert poisson_transform(lambda t: 2.5, 0.4 + 1j, tol=1e-8).value == pytest.approx(2.5, rel=1e-8)
    closed = 0.5 * math.log(2.0) + 2.0 * CATALAN / math.pi
    res = poisson_transform(lambda t: math.log1p(abs(t)), 1j, tol=1e-8)
    assert res.value == pytest.approx(closed, rel=1e-8)


def test_poisson_center_shares_its_call_with_the_first_shells(monkeypatch):
    # the center panel and the first four shells (two intervals each) go to
    # one _integrate call; the rest of the shells to one more
    counts = []

    def integrate(f, intervals):
        counts.append(len(intervals))
        return _integrate(f, intervals)

    monkeypatch.setattr(special_functions, "_integrate", integrate)
    evaluators = {}
    for s, scale, z, *_ in QUAD_PINS:
        if (s, scale) not in evaluators:
            A_hat = derive(make_sequence(GevreySpec(s=s)), "hat")
            evaluators[s, scale] = omega_evaluator(A_hat, scale=scale)
        counts.clear()
        poisson_transform(evaluators[s, scale], z, tol=1e-7)
        # one call fewer than with the center in a call of its own
        assert counts[0] == 1 + 2 * 4 and len(counts) == 2, (s, scale, z, counts)


def test_log_array_is_math_log_on_the_nodes_of_a_poisson_and_a_g_point(monkeypatch):
    # every log |t| an evaluator takes goes through log_array
    nodes = []

    def recording(u):
        nodes.append(u.copy())
        return log_array(u)

    monkeypatch.setattr(special_functions, "log_array", recording)
    A_hat = derive(make_sequence(GevreySpec(s=1.0)), "hat")
    poisson_transform(omega_evaluator(A_hat), complex(-10.0, 0.5), tol=1e-7)
    poisson_nodes = np.concatenate(nodes)
    nodes.clear()
    # the quadrature of a G point: g_log_modulus itself takes the closed form
    z = complex(3.0, 1.0)
    omega_doubled = omega_evaluator(derive(make_sequence(GevreySpec(s=2.0)), "hat"), scale=2.0)
    poisson_transform(omega_doubled, z + 1j)
    for u in (poisson_nodes, np.concatenate(nodes)):
        assert u.size > 10_000
        want = np.fromiter(map(math.log, u.tolist()), float, count=u.size)
        assert np.array_equal(log_array(u).view(np.int64), want.view(np.int64))


def test_integrate_does_not_depend_on_batch():
    # the kink pin of QUAD_PINS: omega_{hat gevrey(2)} has a kink at |t| = 1
    omega = omega_evaluator(derive(make_sequence(GevreySpec(s=2.0)), "hat"))
    x, y = -1.8367346938775508, 3.357142857142857
    levels = [0]

    def f(t):
        levels[0] += 1
        d = t - x
        return y / math.pi * omega.many(t) / (d * d + y * y)

    r = 4.0 * y
    intervals = [
        (x - r, x + r), (-1.5, -0.5), (-1.0, 2.0), (x + r, x + 2.0 * r),
        (x - 2.0 * r, x - r), (x + 64.0 * r, x + 128.0 * r), (-3.0, -1.0 + 1e-9),
    ]
    alone, depths = [], []
    for interval in intervals:
        levels[0] = 0
        alone += _integrate(f, [interval])
        depths.append(levels[0])
    assert len(set(depths)) >= 3  # refined to different depths
    together = _integrate(f, intervals)
    # int64 views compare the bits of every (value, error) pair
    assert np.array_equal(np.array(together).view(np.int64), np.array(alone).view(np.int64))


# (|t| past which log(1 + |t|) is unevaluable, z, tol, (shells, radius) or
# None for QuadratureError), as the shells reach them one _integrate call at
# a time
TRUNCATION_PINS = (
    (20.0, 0.4 + 1j, 1e-3, None),
    (1e4, 0.4 + 1j, 1e-3, (11, 8192.0)),  # unevaluable, but the tail closes
    (1e5, 0.4 + 1j, 1e-3, (13, 32768.0)),
    (1e6, 0.4 + 1j, 1e-5, None),
    (1e7, 0.4 + 1j, 1e-5, (21, 8388608.0)),
    (1e9, 1j, 1e-8, None),
    (1e10, 1j, 1e-8, (31, 8589934592.0)),
)


def test_poisson_truncation_does_not_depend_on_batch_size(monkeypatch):
    batch_sizes = []

    def integrate(f, intervals):
        try:
            return _integrate(f, intervals)
        except EvaluationError:
            batch_sizes.append(len(intervals) // 2)
            raise

    monkeypatch.setattr(special_functions, "_integrate", integrate)
    for limit, z, tol, pinned in TRUNCATION_PINS:

        def weight(t):
            if abs(t) > limit:
                raise EvaluationError(f"no weight past {limit:g}")
            return math.log1p(abs(t))

        if pinned is None:
            with pytest.raises(QuadratureError, match="weight unevaluable past the truncation radius"):
                poisson_transform(weight, z, tol=tol)
        else:
            res = poisson_transform(weight, z, tol=tol)
            assert (res.shells, res.radius) == pinned, limit
    # the unevaluable weight came up in multi-shell batches of several sizes
    assert len({k for k in batch_sizes if k > 1}) >= 3


def test_power_exponent_follows_the_derivations():
    g2 = make_sequence(GevreySpec(s=2.0))
    assert g2.power_exponent == 2.0
    assert derive(g2, "hat").power_exponent == 3.0
    assert derive(g2, "check").power_exponent == 1.0
    assert derive(g2, "power", 1.5).power_exponent == 3.0
    nested = DerivedSpec("power", DerivedSpec("hat", GevreySpec(s=0.5)), 3.0)
    assert make_sequence(nested).power_exponent == 4.5  # (0.5 + 1) * 3
    for spec in (
        QGevreySpec(q=2.0),
        Example38Spec(),
        ExplicitSpec((0.0, 0.5), "power", 2.0),
        DerivedSpec("dc_minorant", GevreySpec(s=2.0)),
        DerivedSpec("hat", Example38Spec()),
    ):
        assert make_sequence(spec).power_exponent is None, spec


# P[omega_{hat gevrey(2)}](z) from scipy quad (epsrel 1e-13) on every piece
# [p^3, (p+1)^3] with p < 20 000, then 60 doubling blocks past 20 000^3
CLOSED_REFERENCES = (
    (complex(-10.0, 0.5), 2.591297019719428),
    (complex(-1.8367346938775508, 3.357142857142857), 1.9186956886000472),
)


def test_closed_form_poisson_matches_kink_split_references():
    seq = derive(make_sequence(GevreySpec(s=2.0)), "hat")
    omega = omega_evaluator(seq)
    for z, want in CLOSED_REFERENCES:
        res = omega.poisson(z)
        assert res.value == pytest.approx(want, rel=1e-12), z
        assert 0 < res.abs_error <= 1e-12 * abs(res.value), z
        assert (res.radius, res.shells) == (math.inf, 0)
    assert len(seq._prefix) == 1  # neither read nor grown


def test_closed_form_poisson_is_within_the_quadrature_error_of_every_quad_pin():
    evaluators = {}
    for s, scale, z, _, _, _, value_bits, error_bits in QUAD_PINS:
        if (s, scale) not in evaluators:
            A_hat = derive(make_sequence(GevreySpec(s=s)), "hat")
            evaluators[s, scale] = omega_evaluator(A_hat, scale=scale)
        closed = evaluators[s, scale].poisson(z)
        gap = abs(closed.value - float.fromhex(value_bits))
        assert gap <= closed.abs_error + float.fromhex(error_bits), (s, scale, z)


def test_closed_form_poisson_only_for_power_laws_past_one():
    for spec in (
        GevreySpec(s=1.0),  # e = 1: the sum of 1/m_j diverges
        QGevreySpec(q=2.0),
        Example38Spec(),
        ExplicitSpec((0.0, 0.5), "power", 2.0),
        DerivedSpec("dc_minorant", GevreySpec(s=2.0)),
    ):
        assert not hasattr(omega_evaluator(make_sequence(spec)), "poisson"), spec
    # so gevrey(1) keeps the quadrature, which cannot close its tail
    omega = omega_evaluator(make_sequence(GevreySpec(s=1.0)))
    with pytest.raises(QuadratureError):
        verify_poisson_lower_bound(omega, [complex(1.0, 1.0)], quad_tol=1e-7)


def test_closed_form_poisson_falls_back_to_the_quadrature_out_of_reach(monkeypatch):
    # e = 1.05: |w| = 1e5 needs some 2e5 near terms
    far = omega_evaluator(derive(make_sequence(GevreySpec(s=1.0)), "power", 1.05))
    with pytest.raises(EvaluationError, match="near terms"):
        far.poisson(1e5j)
    monkeypatch.setattr(special_functions, "_MAX_NEAR", 2)
    omega = omega_evaluator(derive(make_sequence(GevreySpec(s=2.0)), "hat"))
    z = complex(-10.0, 0.5)  # J = 3 near terms
    rep = verify_poisson_lower_bound(omega, [z], quad_tol=1e-7)
    assert rep.rows[0][2] == poisson_transform(omega, z, tol=1e-7).value


def test_closed_form_poisson_imports_scipy_special_on_first_call():
    probe = (
        "import sys\n"
        "from momentgate import GevreySpec, derive, make_sequence, omega_evaluator\n"
        "omega = omega_evaluator(derive(make_sequence(GevreySpec(s=2.0)), 'hat'))\n"
        "print('scipy.special' in sys.modules)\n"
        "omega.poisson(1j)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(special_functions.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_g_context_is_built_once_per_sequence(monkeypatch):
    calls = []

    def counting(seq, cond, horizon):
        calls.append(cond)
        return check_condition(seq, cond, horizon=horizon)

    monkeypatch.setattr(special_functions, "check_condition", counting)
    A = make_sequence(GevreySpec(s=2.0))
    first = verify_g_decay(A, [complex(3.0, 1.0)])
    assert calls == ["wlc", "nq"]
    assert verify_g_decay(A, [complex(3.0, 1.0)]) == first
    verify_g_window_bound(A, [1.5])
    assert calls == ["wlc", "nq"]
    ones = make_sequence(ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0))
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValidationError):
            verify_g_decay(ones, [0j])
    assert calls == ["wlc", "nq"] * 3  # M = 1 is (wlc) but fails (nq)


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
