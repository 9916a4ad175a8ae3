"""Named verification batteries: transform identities, exact inversion,
and the block-family index profile. A battery's keyword parameters are the
settings it reads, and all that run_suite and `momentgate verify SUITE` take.

Each battery emits one CheckResult per assertion with the measured value,
the bound it was held to, and a citation tag so reports can be audited.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from . import numerics
from .errors import ValidationError
from .indices import gamma_index, omega_index
from .moments import (
    GaussianRational,
    Jet,
    derivative_function,
    forward_binomial,
    inversion_coeffs,
    jet_reciprocal,
    lambda_fit,
    laplace_sample,
    make_bump01,
    make_exp_power,
    moment,
    moment_origin,
    moment_with_error,
    phase_forward_binomial,
    phase_inversion_coeffs,
    taylor_bound_check,
)
from .sequences import (
    ExplicitSpec,
    GevreySpec,
    Example38Spec,
    derive,
    make_sequence,
    spec_from_json,
)
from .special_functions import (
    HalfPlanePoint,
    omega_evaluator,
    poisson_transform,
    verify_g_decay,
    verify_g_window_bound,
    verify_poisson_lower_bound,
)
from .verdicts import MapStatus, classify

__all__ = [
    "CheckResult",
    "SuiteReport",
    "suite_inversion",
    "suite_gfun",
    "suite_moments",
    "suite_example38",
    "run_suite",
    "SUITES",
]


@dataclass(frozen=True)
class CheckResult:
    """One named assertion with its measured value and bound."""

    name: str
    ok: bool
    measured: Optional[float] = None
    bound: Optional[float] = None
    citation: str = ""
    witness: Optional[dict] = None
    note: str = ""


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one verification battery."""

    suite: str
    ok: bool
    checks: Tuple[CheckResult, ...]
    params: dict = field(default_factory=dict)
    schema: int = 1

    @property
    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "schema": self.schema,
                "suite": self.suite,
                "ok": self.ok,
                "params": self.params,
                "checks": self.checks,
            }
        )


def _report(suite: str, checks, params) -> SuiteReport:
    checks = tuple(checks)
    return SuiteReport(
        suite=suite, ok=all(c.ok for c in checks), checks=checks, params=params
    )


# ---------------------------------------------------------------------------
# inversion

# random jet pairs per round trip check, and the order of each jet
_INVERSION_TRIALS, _INVERSION_ORDER = 100, 12


def _random_fraction(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))


def suite_inversion(seed: int = 0) -> SuiteReport:
    """Exact jet round trips, plain and phase-twisted, plus pinned examples."""
    trials, order = _INVERSION_TRIALS, _INVERSION_ORDER
    rnd = random.Random(seed)
    checks = []

    G = Jet((1, 1, 0))
    b = inversion_coeffs(Jet((1, 0, 0)), G)
    ok = b.coefficients == (Fraction(1), Fraction(-1), Fraction(2))
    checks.append(
        CheckResult(
            name="worked_example_1plusx",
            ok=ok,
            citation="Lem 3.7",
            witness=None if ok else {"got": [str(v) for v in b.coefficients]},
            note="inverting against the jet of 1+x",
        )
    )
    rec = jet_reciprocal(Jet((2, 0, 0)))
    checks.append(
        CheckResult(
            name="reciprocal_constant",
            ok=rec.coefficients == (Fraction(1, 2), 0, 0),
            citation="Lem 3.7",
            note="reciprocal of the constant jet 2",
        )
    )

    plain_fail = phase_fail = 0
    plain_witness = phase_witness = None
    for trial in range(trials):
        c = Jet(tuple(_random_fraction(rnd) for _ in range(order + 1)))
        g0 = Fraction(rnd.choice([1, 2, 3, -1, -2, 5]), rnd.randint(1, 4))
        Gj = Jet((g0,) + tuple(_random_fraction(rnd) for _ in range(order)))
        back = forward_binomial(inversion_coeffs(c, Gj), Gj)
        if back.coefficients != c.coefficients:
            plain_fail += 1
            plain_witness = plain_witness or {"trial": trial}
        twisted = phase_forward_binomial(phase_inversion_coeffs(c, Gj), Gj)
        same = all(
            GaussianRational.lift(a) == v
            for a, v in zip(c.coefficients, twisted.coefficients)
        )
        if not same:
            phase_fail += 1
            phase_witness = phase_witness or {"trial": trial}
    checks.append(
        CheckResult(
            name="round_trip_exact",
            ok=plain_fail == 0,
            measured=float(trials - plain_fail),
            bound=float(trials),
            citation="Lem 3.7",
            witness=plain_witness,
            note=f"{trials - plain_fail}/{trials} exact round trips",
        )
    )
    checks.append(
        CheckResult(
            name="phase_round_trip_exact",
            ok=phase_fail == 0,
            measured=float(trials - phase_fail),
            bound=float(trials),
            citation="Lem 4.10",
            witness=phase_witness,
            note=f"{trials - phase_fail}/{trials} exact phase round trips",
        )
    )
    return _report(
        "inversion", checks, {"seed": seed, "trials": trials, "order": order}
    )


# ---------------------------------------------------------------------------
# Poisson / outer function


_CATALAN = 0.915965594177219


def _lower_bound_grid() -> list:
    return [
        complex(-10.0 + 20.0 * k / 49.0, 0.5 + 3.5 * ((k * 7) % 50) / 49.0)
        for k in range(50)
    ]


def suite_gfun(quad_tol: float = 1e-8) -> SuiteReport:
    """Analytic Poisson checks plus the decay and lower-bound grids."""
    checks = []

    flat = poisson_transform(lambda t: 2.5, HalfPlanePoint(0.4, 1.0), tol=quad_tol)
    err = abs(flat.value - 2.5)
    checks.append(
        CheckResult(
            name="poisson_constant",
            ok=err <= 10.0 * quad_tol,
            measured=err,
            bound=10.0 * quad_tol,
            citation="Lem 3.3",
            note="harmonic extension of a constant is the constant",
        )
    )
    logw = poisson_transform(
        lambda t: math.log1p(abs(t)), HalfPlanePoint(0.0, 1.0), tol=quad_tol
    )
    closed = 0.5 * math.log(2.0) + 2.0 * _CATALAN / math.pi
    err = abs(logw.value - closed)
    checks.append(
        CheckResult(
            name="poisson_log_weight",
            ok=err <= 10.0 * quad_tol,
            measured=err,
            bound=10.0 * quad_tol,
            citation="Lem 3.3",
            note="closed form at i from the Catalan constant",
        )
    )

    grid = _lower_bound_grid()
    for label, s in (("gevrey2", 2.0), ("gevrey1", 1.0)):
        A = make_sequence(GevreySpec(s=s))
        om = omega_evaluator(derive(A, "hat"))
        rep = verify_poisson_lower_bound(om, grid, tol=1e-6, quad_tol=quad_tol)
        worst = min(r[-1] for r in rep.rows)
        checks.append(
            CheckResult(
                name=f"poisson_lower_bound_{label}",
                ok=rep.ok,
                measured=worst,
                bound=-1e-6,
                citation="Lem 3.3",
                witness=None if rep.ok else {"rows": rep.rows[:3]},
                note="P >= omega(|z|)/4 on a 50-point grid; measured worst slack",
            )
        )

    A2 = make_sequence(GevreySpec(s=2.0))
    decay_grid = [
        complex(-20.0 + 40.0 * k / 39.0, 0.25 + 2.75 * ((k * 11) % 40) / 39.0)
        for k in range(40)
    ]
    rep = verify_g_decay(A2, decay_grid, tol=1e-4, quad_tol=quad_tol)
    checks.append(
        CheckResult(
            name="g_decay_grid",
            ok=rep.ok,
            measured=rep.sup,
            bound=rep.bound,
            citation="Lem 3.2",
            witness=None if rep.ok else {"rows": rep.rows[:3]},
            note="sup of log|G| + omega(|z|) against the declared ceiling",
        )
    )
    win = verify_g_window_bound(
        A2, (1.0, 2.5, -6.0), tol=1e-6, quad_tol=quad_tol
    )
    checks.append(
        CheckResult(
            name="g_window_bound",
            ok=win.ok,
            measured=win.sup,
            bound=win.bound,
            citation="Lem 3.2",
            witness=None if win.ok else {"rows": win.rows[:3]},
            note="circle max of log|G| stays under the shifted envelope",
        )
    )
    return _report("gfun", checks, {"quad_tol": quad_tol})


# ---------------------------------------------------------------------------
# moments


def _simpson(f: Callable[[float], float], a: float, b: float, n: int) -> float:
    # n intervals, n even
    h = (b - a) / n
    acc = f(a) + f(b)
    for j in range(1, n):
        acc += f(a + j * h) * (4 if j % 2 else 2)
    return acc * h / 3.0


def suite_moments() -> SuiteReport:
    """Closed-form moments, membership fits, Laplace and origin identities.

    The quadratures run to moments' own MOMENT_RTOL, ORIGIN_RTOL and
    LAPLACE_ATOL, so the battery takes no settings.
    """
    checks = []

    worst = 0.0
    for s in (1.0, 2.0, 3.0):
        phi = make_exp_power(s)
        for p in range(16):
            want = s * math.exp(math.lgamma(s * (p + 1)))
            got = moment(phi, p)
            worst = max(worst, abs(got - want) / want)
    checks.append(
        CheckResult(
            name="moment_closed_form",
            ok=worst <= 1e-9,
            measured=worst,
            bound=1e-9,
            citation="Thm 3.4",
            note="moment(exp_power(s), p) vs s*Gamma(s(p+1)), s in {1,2,3}, p <= 15",
        )
    )

    bump = make_bump01()
    value, err = moment_with_error(bump, 0)
    oracle = _simpson(bump.evaluator, 0.0, 1.0, 20000)
    diff = abs(value - oracle)
    checks.append(
        CheckResult(
            name="moment_bump_reference",
            ok=diff <= 1e-10,
            measured=diff,
            bound=1e-10,
            citation="Lem 4.1",
            note="adaptive value vs fixed-grid reference at 10x resolution",
        )
    )

    ones = make_sequence(
        ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0)
    )
    scales = {1.0: ones, 2.0: make_sequence(GevreySpec(s=1.0)), 3.0: make_sequence(GevreySpec(s=2.0))}
    fit_ok = True
    fit_note = []
    for s, M in scales.items():
        vals = [s * math.exp(math.lgamma(s * (p + 1))) for p in range(21)]
        fit = lambda_fit(vals, M)
        fit_ok = fit_ok and fit.ok
        fit_note.append(f"s={s:g}: h={fit.h:.3f}")
    checks.append(
        CheckResult(
            name="lambda_fit_accepts_moments",
            ok=fit_ok,
            citation="Thm 3.4",
            note="; ".join(fit_note),
        )
    )
    bad = lambda_fit(
        [math.exp(3.0 * math.lgamma(p + 1)) for p in range(21)],
        make_sequence(GevreySpec(s=1.0)),
    )
    checks.append(
        CheckResult(
            name="lambda_fit_rejects_cubed_factorial",
            ok=not bad.ok,
            measured=bad.drift,
            citation="Thm 3.4",
            note="growth beyond every fixed radius must be refused",
        )
    )

    e1 = make_exp_power(1.0)
    l0 = abs(laplace_sample(e1, 0.0).value - 1.0)
    li = abs(laplace_sample(e1, 1j).value - 0.5)
    checks.append(
        CheckResult(
            name="laplace_closed_values",
            ok=max(l0, li) <= 1e-10,
            measured=max(l0, li),
            bound=1e-10,
            citation="Thm 3.4",
            note="L(0) = 1 and L(i) = 1/2 for exp_power(1)",
        )
    )
    h = 0.005
    fd = (
        laplace_sample(e1, h).value
        - 2.0 * laplace_sample(e1, 0.0).value
        + laplace_sample(e1, -h + 0j).value
    ) / h**2
    mu2 = moment(e1, 2)
    rel = abs(fd + mu2) / mu2
    checks.append(
        CheckResult(
            name="laplace_second_derivative",
            ok=rel <= 1e-4,
            measured=rel,
            bound=1e-4,
            citation="Thm 3.4",
            note="central difference of L at 0 vs -mu_2",
        )
    )

    dbump = derivative_function(bump)
    worst = 0.0
    for p in range(1, 9):
        lhs = moment_origin(dbump, p)
        rhs = p * moment_origin(bump, p + 1)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    checks.append(
        CheckResult(
            name="origin_derivative_identity",
            ok=worst <= 1e-6,
            measured=worst,
            bound=1e-6,
            citation="Eq 4.1",
            note="origin moments of the derivative vs shifted orders, p <= 8",
        )
    )

    rep = taylor_bound_check(bump, 10, make_sequence(GevreySpec(s=1.0)))
    checks.append(
        CheckResult(
            name="taylor_pointwise_bound",
            ok=rep.ok,
            measured=rep.h,
            citation="Lem 4.1",
            witness=None if rep.ok else {"witness": rep.witness},
            note=rep.note,
        )
    )
    return _report("moments", checks, {})


# ---------------------------------------------------------------------------
# the block family


def suite_example38(horizon: int = 10_000, tol: float = 0.05) -> SuiteReport:
    """Index profile of the delta-block family and its half power."""
    checks = []
    seq = make_sequence(Example38Spec())
    om = omega_index(seq, horizon=horizon, tol=tol)
    checks.append(
        CheckResult(
            name="omega_estimate",
            ok=abs(om.estimate - 2.5) <= 0.05,
            measured=om.estimate,
            bound=0.05,
            citation="Ex 3.8",
            note="growth index of the block family vs 5/2",
        )
    )
    ga = gamma_index(seq, horizon=horizon, tol=tol)
    width = ga.upper - ga.lower
    ok = ga.lower <= 2.0 <= ga.upper and width <= 0.2
    checks.append(
        CheckResult(
            name="gamma_bracket",
            ok=ok,
            measured=width,
            bound=0.2,
            citation="Ex 3.8",
            witness={"lower": ga.lower, "upper": ga.upper},
            note="regularity index bracket around 2",
        )
    )
    checks.append(
        CheckResult(
            name="gamma_below_omega",
            ok=ga.upper <= om.estimate + 0.1,
            measured=ga.upper,
            bound=om.estimate + 0.1,
            citation="Ex 3.8",
            note="the two indices separate for this family",
        )
    )

    half = spec_from_json(
        {"kind": "derived", "op": "power", "s": 0.5, "base": {"kind": "example38"}}
    )
    rep = classify(half, horizon=horizon, tol=tol)
    ok = (
        rep.injective.status is MapStatus.FAILS
        and rep.surjective.status is MapStatus.FAILS
        and rep.gamma.lower <= 1.0 <= rep.gamma.upper
    )
    checks.append(
        CheckResult(
            name="half_power_neither",
            ok=ok,
            citation="Ex 3.8",
            witness={
                "injective": rep.injective.status.value,
                "surjective": rep.surjective.status.value,
                "gamma": [rep.gamma.lower, rep.gamma.upper],
            },
            note="half power: neither injective nor surjective, bracket at 1",
        )
    )
    return _report("example38", checks, {"horizon": horizon, "tol": tol})


# ---------------------------------------------------------------------------
# dispatch


SUITES: Dict[str, Callable[..., SuiteReport]] = {
    "inversion": suite_inversion,
    "gfun": suite_gfun,
    "moments": suite_moments,
    "example38": suite_example38,
}


def run_suite(name: str, **params) -> SuiteReport:
    """Run one named battery with params, which must be its own keywords."""
    if name not in SUITES:
        raise ValidationError(f"run_suite: unknown suite {name!r}; choose from {sorted(SUITES)}")
    try:
        inspect.signature(SUITES[name]).bind(**params)
    except TypeError as e:  # "got an unexpected keyword argument 'horizon'"
        raise ValidationError(f"run_suite: suite {name!r} {e}")
    return SUITES[name](**params)
