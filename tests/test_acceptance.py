"""Acceptance criteria: one test per criterion, one pass/fail line each.

Tolerances are pinned in the assertions; randomized inputs use fixed seeds
so every run checks the same instances.
"""

import functools
import math
import random
import time
from fractions import Fraction

from momentgate import (
    Example38Spec,
    ExplicitSpec,
    GevreySpec,
    Jet,
    MapStatus,
    QGevreySpec,
    check_condition,
    classify,
    dc_minorant,
    derivative_function,
    derive,
    fit_growth_envelope,
    forward_binomial,
    gamma_index,
    inversion_coeffs,
    lambda_fit,
    laplace_sample,
    make_bump01,
    make_exp_power,
    make_sequence,
    moment,
    moment_origin,
    omega_evaluator,
    omega_index,
    phase_forward_binomial,
    phase_inversion_coeffs,
    taylor_bound_check,
    verify_g_decay,
    verify_poisson_lower_bound,
)
from momentgate.numerics import jsonable


def criterion(tag, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{tag} {text}: FAIL")
                raise
            print(f"{tag} {text}: PASS")

        return wrapper

    return deco


def _never_bijective(rep):
    assert not (
        rep.injective.status is MapStatus.HOLDS
        and rep.surjective.status is MapStatus.HOLDS
    )
    assert not (
        rep.origin_injective.status is MapStatus.HOLDS
        and rep.origin_surjective.status is MapStatus.HOLDS
    )


def _gevrey_sweep(horizon):
    for k in range(1, 16):
        s = round(0.2 * k, 10)
        yield s, classify(GevreySpec(s=s), horizon=horizon)


@criterion("A1", "gevrey injectivity/surjectivity thresholds")
def test_a01_gevrey_thresholds():
    t0 = time.perf_counter()
    for s, rep in _gevrey_sweep(horizon=10_000):
        assert (rep.injective.status is MapStatus.HOLDS) == (s <= 1.0), s
        assert (rep.surjective.status is MapStatus.HOLDS) == (s > 1.0), s
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"sweep took {elapsed:.2f}s"


@criterion("A2", "example38 index estimates and half-power classification")
def test_a02_example38_indices():
    seq = make_sequence(Example38Spec())
    o = omega_index(seq, horizon=100_000)
    assert 2.45 <= o.estimate <= 2.55
    g = gamma_index(seq, horizon=100_000)
    assert g.lower <= 2.0 <= g.upper + 1e-12
    assert g.upper - g.lower <= 0.2
    half = derive(seq, "power", s=0.5)
    gh = gamma_index(half, horizon=100_000)
    assert gh.lower <= 1.0 <= gh.upper + 1e-12
    rep = classify(half.spec, horizon=100_000)
    assert rep.injective.status is MapStatus.FAILS
    assert rep.surjective.status is MapStatus.FAILS


@criterion("A3", "never bijective across sweeps and 200 random (lc)+(dc) inputs")
def test_a03_never_bijective():
    reports = []
    for _, rep in _gevrey_sweep(horizon=4096):
        reports.append(rep)
    for q in (1.5, 2.0, 4.0):
        reports.append(classify(QGevreySpec(q=q), horizon=4096))
    reports.append(classify(Example38Spec(), horizon=4096))

    rng = random.Random(20260823)
    specs = []
    for _ in range(120):
        e = rng.uniform(0.1, 4.0)
        head = tuple(e * math.log(p + 1) for p in range(12))
        specs.append(ExplicitSpec(log_m=head, tail_rule="power", tail_value=e))
    for _ in range(80):
        e1 = rng.uniform(0.05, 1.5)
        e2 = e1 + rng.uniform(0.0, 2.5)
        k = rng.randint(6, 14)
        head = [e1 * math.log(p + 1) for p in range(k)]
        head += [
            head[k - 1] + e2 * (math.log(p + 1) - math.log(k)) for p in range(k, 24)
        ]
        specs.append(
            ExplicitSpec(log_m=tuple(head), tail_rule="power", tail_value=e2)
        )
    assert len(specs) == 200
    for spec in specs:
        rep = classify(spec, horizon=4096)
        # generator soundness: the drawn sequence really is (lc)+(dc)
        assert rep.hypotheses["lc"].affirmative
        assert rep.hypotheses["dc"].affirmative
        reports.append(rep)

    for rep in reports:
        _never_bijective(rep)
        if rep.hypotheses["lc"].affirmative:
            assert rep.gamma.upper <= rep.omega.estimate + 0.1, rep.name


@criterion("A4", "dc minorant passes (wlc)+(dc H=2)+(nq) and stays inside M")
def test_a04_dc_minorant_construction():
    rng = random.Random(42)
    for _ in range(50):
        s = rng.uniform(0.3, 2.5)
        head = tuple(
            s * math.log(p + 1) + 0.01 * rng.random() for p in range(48)
        )
        base = make_sequence(
            ExplicitSpec(log_m=head, tail_rule="power", tail_value=s)
        )
        assert check_condition(base, "wlc", horizon=10_000).affirmative
        assert check_condition(base, "nq", horizon=10_000).affirmative
        n = dc_minorant(base)
        assert check_condition(n, "wlc", horizon=10_000).affirmative
        dc = check_condition(n, "dc", horizon=10_000)
        assert dc.affirmative
        assert dc.constants["H"] <= 2.0 + 1e-9
        assert check_condition(n, "nq", horizon=10_000).affirmative
        ratios = [n.log_M(p) - base.log_M(p) for p in range(41)]
        # pointwise N_p <= M_p, and the fitted radius certifies N inside M
        assert max(ratios) <= 1e-12
        fit = fit_growth_envelope(ratios)
        assert fit.ok
        assert fit.h <= 1.0 + 1e-9 and math.isfinite(fit.C)


@criterion("A5", "inversion and phase round trips exact over rationals")
def test_a05_inversion_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(5)
    for _ in range(100):
        b = Jet(
            tuple(
                Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(13)
            )
        )
        G = Jet(
            (Fraction(rng.randint(1, 40), rng.randint(1, 20)),)
            + tuple(
                Fraction(rng.randint(-50, 50), rng.randint(1, 25)) for _ in range(12)
            )
        )
        assert inversion_coeffs(forward_binomial(b, G), G).coefficients == b.coefficients
        assert (
            phase_inversion_coeffs(phase_forward_binomial(b, G), G).coefficients
            == b.coefficients
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"round trips took {elapsed:.2f}s"


@criterion("A6", "Poisson lower bound and G decay bound on grids")
def test_a06_poisson_g_suite():
    grid = [
        complex(-10.0 + 20.0 * k / 49.0, 0.5 + 3.5 * ((k * 7) % 50) / 49.0)
        for k in range(50)
    ]
    for s in (2.0, 1.0):
        A = make_sequence(GevreySpec(s=s))
        omega = omega_evaluator(derive(A, "hat"))
        rep = verify_poisson_lower_bound(omega, grid, tol=1e-6, quad_tol=1e-7)
        assert rep.ok, rep.note
    A2 = make_sequence(GevreySpec(s=2.0))
    xs = [complex(-20.0 + 40.0 * k / 39.0, 0.0) for k in range(40)]
    decay = verify_g_decay(A2, xs, tol=1e-4, quad_tol=1e-7)
    assert decay.ok, decay.note
    assert decay.sup <= decay.bound + 1e-4


@criterion("A7", "moment closed form and membership fits")
def test_a07_moment_numerics():
    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        phi = make_exp_power(s)
        for p in range(16):
            want = s * math.exp(math.lgamma(s * (p + 1)))
            got = moment(phi, p)
            worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-9, f"worst relative error {worst:.2e}"

    ones = make_sequence(
        ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0)
    )
    matching = {1.0: ones, 2.0: make_sequence(GevreySpec(s=1.0)),
                3.0: make_sequence(GevreySpec(s=2.0))}
    for s, M in matching.items():
        vals = [s * math.exp(math.lgamma(s * (p + 1))) for p in range(21)]
        assert lambda_fit(vals, M).ok, f"s={s}"
    cubed = [math.exp(3.0 * math.lgamma(p + 1)) for p in range(21)]
    assert not lambda_fit(cubed, make_sequence(GevreySpec(s=1.0))).ok


@criterion("A8", "origin derivative identity and pointwise Taylor bound")
def test_a08_origin_identities():
    bump = make_bump01()
    dbump = derivative_function(bump)
    worst = 0.0
    for p in range(1, 9):
        lhs = moment_origin(dbump, p)
        rhs = p * moment_origin(bump, p + 1)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst <= 1e-6, f"worst relative error {worst:.2e}"
    rep = taylor_bound_check(bump, 10, make_sequence(GevreySpec(s=1.0)))
    assert rep.ok, rep.witness


@criterion("A9", "Laplace second difference reproduces -mu_2")
def test_a09_laplace_identity():
    e1 = make_exp_power(1.0)
    h = 0.005
    fd = (
        laplace_sample(e1, h).value
        - 2.0 * laplace_sample(e1, 0.0).value
        + laplace_sample(e1, -h + 0j).value
    ) / h**2
    mu2 = moment(e1, 2)
    assert abs(fd.real + mu2) / mu2 <= 1e-4
    assert abs(fd.imag) <= 1e-4


@criterion("A10", "q-gevrey profile: lc/dc hold, mg fails, gamma at +inf")
def test_a10_q_gevrey_profile():
    q = make_sequence(QGevreySpec(q=2.0))
    assert check_condition(q, "lc").affirmative
    assert check_condition(q, "dc").affirmative
    mg = check_condition(q, "mg", horizon=4096)
    assert mg.status.value == "fails"
    assert mg.witness is not None and mg.witness["excess"] > 0
    g = gamma_index(q, horizon=4096)
    assert g.lower == 64.0
    assert jsonable(g.upper) == "inf"
