"""Moments, origin moments, Laplace samples, growth-envelope fits, and exact
jet inversion.

Test functions are plain evaluators carrying a decay declaration; the
quadrature routines refuse work the declaration cannot support. Every jet
runs as a real and an imaginary row of integers over one positive common
denominator: int, Fraction and GaussianRational entries as they are, a float
or complex entry as the binary rational it holds (inf and nan are refused).
A result from exact entries stays exact and keeps its reduced rows, building
its entries only when they are read; any other is rounded once, entry by
entry, to the nearest float. Inversion is a triangular solve against G, and
the phase functions are the plain ones against (-i)^k G_k. GaussianRational
is only the entry type of exact complex results and has no arithmetic.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import numerics
from .errors import EvaluationError, QuadratureError, ValidationError
from .sequences import WeightSequence

__all__ = [
    "TestFunction",
    "make_exp_power",
    "make_bump01",
    "make_user",
    "moment",
    "moment_with_error",
    "moment_origin",
    "LaplaceSample",
    "laplace_sample",
    "GrowthFit",
    "fit_growth_envelope",
    "LambdaFit",
    "lambda_fit",
    "GaussianRational",
    "Jet",
    "jet_reciprocal",
    "inversion_coeffs",
    "forward_binomial",
    "phase_inversion_coeffs",
    "phase_forward_binomial",
    "bump01_taylor",
    "derivative_function",
    "TaylorBoundReport",
    "taylor_bound_check",
]

_TINY = 1e-300
_LOG_TINY = -650.0

# Accuracy targets of the quadratures: relative for moment (and
# moment_with_error) and moment_origin, absolute for laplace_sample.
MOMENT_RTOL = 1e-10
ORIGIN_RTOL = 1e-8
LAPLACE_ATOL = 1e-12

# taylor_bound_check's grid size on the support and its slack in log |phi|
TAYLOR_GRID_POINTS = 1000
TAYLOR_LOG_TOL = 1e-9


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """An integrand with declared support and decay.

    decay_exponent d promises |phi(x)| = O((1+x)^-d); math.inf marks
    super-polynomial decay or compact support. log_envelope, when present,
    is a decreasing upper bound for log |phi| used to certify quadrature
    tails. taylor_evaluator(x, n) returns the derivative values
    phi(x), phi'(x), ..., phi^(n)(x).
    """

    kind: str
    name: str
    evaluator: Callable[[float], float]
    support: Tuple[float, float]
    decay_exponent: float
    log_envelope: Optional[Callable[[float], float]] = None
    taylor_evaluator: Optional[Callable[[float, int], Tuple[float, ...]]] = None
    s: Optional[float] = None

    @property
    def compact(self) -> bool:
        return math.isfinite(self.support[1])


def make_exp_power(s: float) -> TestFunction:
    """phi(x) = exp(-x^(1/s)) on the half line."""
    if not (s > 0) or not math.isfinite(s):
        raise ValidationError("exp_power: field 's' must be a finite number > 0")
    inv_s = 1.0 / s

    def phi(x: float) -> float:
        if x < 0:
            return 0.0
        a = -(x**inv_s)
        return math.exp(a) if a > _LOG_TINY else 0.0

    def env(x: float) -> float:
        return -(x**inv_s) if x > 0 else 0.0

    return TestFunction(
        kind="exp_power",
        name=f"exp_power({s:g})",
        evaluator=phi,
        support=(0.0, math.inf),
        decay_exponent=math.inf,
        log_envelope=env,
        s=s,
    )


def make_bump01() -> TestFunction:
    """phi(x) = exp(-1/x - 1/(1-x)) on (0,1), zero elsewhere.

    All derivatives vanish at both endpoints; derivative values come from
    the exact Taylor recursion of the two exponential factors.
    """

    def phi(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        a = -1.0 / x - 1.0 / (1.0 - x)
        return math.exp(a) if a > _LOG_TINY else 0.0

    return TestFunction(
        kind="bump01",
        name="bump01",
        evaluator=phi,
        support=(0.0, 1.0),
        decay_exponent=math.inf,
        taylor_evaluator=bump01_taylor,
    )


def make_user(
    evaluator: Callable[[float], float],
    decay_exponent: float,
    support: Tuple[float, float] = (0.0, math.inf),
    name: str = "user",
    log_envelope: Optional[Callable[[float], float]] = None,
    taylor_evaluator: Optional[Callable[[float, int], Tuple[float, ...]]] = None,
) -> TestFunction:
    """Wrap a sampled evaluator with a decay declaration.

    Without an explicit envelope the declaration is turned into one by
    probing the evaluator on a log grid and padding the implied constant
    fourfold; a dishonest declaration shifts blame to the caller.
    """
    if not (decay_exponent > 0):
        raise ValidationError("user: field 'decay_exponent' must be > 0")
    lo, hi = support
    if not (0.0 <= lo < hi):
        raise ValidationError("user: field 'support' must satisfy 0 <= lo < hi")
    # compact support needs no tail certificate; unbounded support gets one
    if log_envelope is None and math.isinf(hi):
        if math.isinf(decay_exponent):
            raise ValidationError(
                "user: infinite decay_exponent needs an explicit log_envelope"
            )
        best = -math.inf
        for k in range(0, 241):
            x = lo + math.pow(1.06, k)
            try:
                v = abs(evaluator(x))
            except OverflowError:
                raise EvaluationError(
                    f"user: evaluator overflowed at x = {x!r} while probing its decay"
                ) from None
            if v > 0:
                best = max(best, math.log(v) + decay_exponent * math.log1p(x))
        base = best + math.log(4.0) if math.isfinite(best) else math.log(4.0)
        d = decay_exponent

        def log_envelope(x: float, _b=base, _d=d) -> float:
            return _b - _d * math.log1p(max(x, 0.0))

    return TestFunction(
        kind="user",
        name=name,
        evaluator=evaluator,
        support=(float(lo), float(hi)),
        decay_exponent=float(decay_exponent),
        log_envelope=log_envelope,
        taylor_evaluator=taylor_evaluator,
    )


# ---------------------------------------------------------------------------
# quadrature


# room in log |phi| by which the declared envelope must clear the best score
# before it ends a half of moment's dyadic scale scan
_SCAN_SLACK = 1.0


@functools.cache
def _integrate():
    # imported on first use: scipy.integrate takes most of the package's
    # import time, and only the quadrature routines below need it
    from scipy import integrate

    return integrate


def _quiet(routine):
    """Run a quadrature routine with IntegrationWarning ignored, entering the
    warnings filter once for all of its panels."""

    @functools.wraps(routine)
    def quiet(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", _integrate().IntegrationWarning)
            return routine(*args, **kwargs)

    return quiet


def _panel_quad(f, a: float, b: float, epsabs: float, epsrel: float):
    v, e = _integrate().quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    return float(v), float(e)


def _not_finite(where: str, v: float, x: float) -> EvaluationError:
    # raised inside the integrand: QUADPACK must never see a nan or an inf
    return EvaluationError(f"{where}: integrand is {v!r} at x = {x!r}")


def _envelope_tail(log_env, start: float, p: int, extra_decay: float = 0.0) -> float:
    """Upper bound for int_start^inf x^p exp(log_env(x) - extra_decay*x) dx.

    Dyadic majorant; returns inf when the majorant refuses to converge
    within 64 doublings.
    """
    total = 0.0
    xj = start
    for _ in range(64):
        top = 2.0 * xj
        le = log_env(xj) - extra_decay * xj
        if le <= _LOG_TINY:
            term = 0.0
        else:
            lt = p * math.log(top) + math.log(xj) + le
            if lt > 600.0:
                return math.inf
            term = math.exp(lt)
        total += term
        if term < 1e-9 * max(total, _TINY):
            return total
        xj = top
    return math.inf


def _check_order(p: int, cap: int, where: str) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValidationError(f"{where}: order p must be an integer >= 0")
    if p > cap:
        raise ValidationError(f"{where}: order p={p} beyond supported cap {cap}")


def _dominant_scale(f, log_env, p: int) -> int:
    """The first k in -80..240 that maximizes (p+1) k log 2 + log |f(2^k)|.

    The declared envelope is decreasing, so past any x its value there
    bounds log |f|. Scanning up from k = 0, no later scale can beat the best
    score once (p+1) 240 log 2 + log_env(2^k) + _SCAN_SLACK falls below it;
    scanning down from k = -1, no smaller one can once
    (p+1) k log 2 + log_env(2^-80) + _SCAN_SLACK does. The downward half
    takes ties, so the result is the full ascending scan's first maximum.
    Without an envelope, or with a nan or infinite one at 2^-80, every k is
    scored.
    """
    log2 = math.log(2.0)

    def log_abs(x: float) -> float:
        try:
            val = abs(f(x))
        except OverflowError:
            # evaluator gave out at an extreme probe; the declared envelope
            # stands in, and without one the failure is the caller's
            if log_env is None:
                raise EvaluationError(
                    f"moment: evaluator overflowed at x = {x:g} and no "
                    "log_envelope was declared"
                )
            return log_env(x)
        return math.log(val) if val > 0.0 else -math.inf

    ceiling = math.nan if log_env is None else log_env(2.0**-80)
    if math.isfinite(ceiling):
        reach = (p + 1) * 240 * log2 + _SCAN_SLACK
    else:
        ceiling = reach = math.inf
    best_k, best = 0, -math.inf
    for k in range(0, 241):
        x = 2.0**k
        log_val = log_abs(x)
        score = (p + 1) * k * log2 + log_val
        if score > best:
            best_k, best = k, score
        # log |f(x)| <= log_env(x): the first test spares the envelope call
        elif log_val < best - reach and log_env(x) < best - reach:
            break
    for k in range(-1, -81, -1):
        if (p + 1) * k * log2 + ceiling + _SCAN_SLACK < best:
            break
        log_val = log_abs(2.0**k)
        score = (p + 1) * k * log2 + log_val
        if log_val > -math.inf and score >= best:
            best_k, best = k, score
    return best_k


@_quiet
def moment_with_error(phi: TestFunction, p: int):
    """(value, abs error estimate) for int_0^inf x^p phi(x) dx, to MOMENT_RTOL.

    On the half line the panels [2^k, 2^(k+1)] run right, then left, from
    the scale _dominant_scale picks. The declared log_envelope, which
    certifies the right tail, also ends that scale scan as soon as it proves
    that no further scale can score higher. A nan or infinite integrand
    value is an EvaluationError naming x.
    """
    _check_order(p, 64, "moment")
    if math.isfinite(phi.decay_exponent) and phi.decay_exponent <= p + 1:
        raise ValidationError(
            f"moment: declared decay (1+x)^-{phi.decay_exponent:g} cannot dominate "
            f"x^{p}; need exponent > {p + 1}"
        )
    f = phi.evaluator
    def integrand(x: float) -> float:
        v = (x**p) * f(x)
        if math.isfinite(v):
            return v
        raise _not_finite("moment", v, x)

    lo, hi = phi.support
    if phi.compact:
        v, e = _panel_quad(integrand, lo, hi, 1e-14, 1e-11)
        return v, e

    # locate the dominant dyadic scale, then integrate outward from it
    best_k = _dominant_scale(f, phi.log_envelope, p)
    total = 0.0
    err = 0.0
    k = best_k
    while True:
        v, e = _panel_quad(integrand, 2.0**k, 2.0 ** (k + 1), _TINY, 1e-11)
        total += v
        err += e
        scale = max(abs(total), _TINY)
        if abs(v) <= MOMENT_RTOL * scale:
            if phi.log_envelope is None:
                raise QuadratureError("moment: no tail envelope for half-line integral")
            tail = _envelope_tail(phi.log_envelope, 2.0 ** (k + 1), p)
            if tail <= 0.25 * MOMENT_RTOL * scale:
                err += tail
                break
        k += 1
        if k > best_k + 1100:
            raise QuadratureError("moment: right tail failed to close")
    k = best_k - 1
    small = 0
    while k >= -1080:
        v, e = _panel_quad(integrand, 2.0**k, 2.0 ** (k + 1), _TINY, 1e-11)
        total += v
        err += e
        small = small + 1 if abs(v) <= 0.01 * MOMENT_RTOL * abs(total) else 0
        if small >= 2:
            # remaining mass below 2^k is at most sup|phi| * x^(p+1)/(p+1)
            cap = max(abs(f(2.0**k * (j + 1) / 8.0)) for j in range(8))
            cap = max(cap, abs(f(0.0)))
            bound = 2.0 * cap * math.exp((p + 1) * k * math.log(2.0)) / (p + 1)
            if bound <= 0.25 * MOMENT_RTOL * abs(total):
                err += bound
                break
        k -= 1
    if err > 20.0 * MOMENT_RTOL * max(abs(total), _TINY):
        raise QuadratureError(
            f"moment: error estimate {err:.2e} misses relative target {MOMENT_RTOL:g}"
        )
    return total, err


def moment(phi: TestFunction, p: int) -> float:
    """mu_p(phi) = int_0^inf x^p phi(x) dx."""
    return moment_with_error(phi, p)[0]


@_quiet
def moment_origin(phi: TestFunction, p: int) -> float:
    """mu0_p(phi) = int_0^1 phi(x) / x^p dx for phi flat at the origin, to
    ORIGIN_RTOL.

    A pre-check probes phi(10^-k); growth of phi(x)/x^p toward 0 means the
    integrand blows up and the order is refused. A nan or infinite integrand
    value is an EvaluationError naming x.
    """
    _check_order(p, 32, "moment_origin")
    lo, hi = phi.support
    if hi > 1.0 or lo < 0.0:
        raise ValidationError("moment_origin: support must lie inside [0, 1]")
    f = phi.evaluator
    if p >= 1:
        probes = []
        for k in range(1, 13):
            x = 10.0**-k
            v = f(x)
            lv = math.log(abs(v)) if v != 0.0 else -math.inf
            probes.append(lv + k * p * math.log(10.0))
        if probes[11] >= probes[5] and probes[11] > -460.0:
            raise QuadratureError(
                f"moment_origin: integrand grows toward 0 at order p={p}; "
                "test function must vanish to infinite order"
            )

    def integrand(x: float) -> float:
        v = f(x)
        if v == 0.0:
            return 0.0
        v = v * math.exp(-p * math.log(x))
        if math.isfinite(v):
            return v
        raise _not_finite("moment_origin", v, x)

    cuts = [1.0, 0.99, 0.9, 0.5, 0.1]
    x_hi = 0.1
    while x_hi > 1e-300:
        x_lo = x_hi / 10.0
        if all(f(x_lo + (x_hi - x_lo) * j / 6.0) == 0.0 for j in range(7)):
            break
        cuts.append(x_lo)
        x_hi = x_lo
    cuts = sorted(cuts)
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = _panel_quad(integrand, a, b, _TINY, 1e-12)
        total += v
        err += e
    if err > 20.0 * ORIGIN_RTOL * max(abs(total), _TINY):
        raise QuadratureError(
            f"moment_origin: error estimate {err:.2e} misses relative target {ORIGIN_RTOL:g}"
        )
    return total


@dataclass(frozen=True)
class LaplaceSample:
    """One sample of zeta -> int_0^inf phi(x) exp(i x zeta) dx."""

    zeta: complex
    value: complex
    abs_error: float


@_quiet
def laplace_sample(phi: TestFunction, zeta: complex) -> LaplaceSample:
    """Oscillation-aware quadrature of the Laplace-type sample at zeta, its
    tail cut where the declared envelope bounds it by LAPLACE_ATOL / 4.

    Panels never exceed half a period of exp(i x Re zeta) (capped at 1), so
    the oscillation stays resolved without specialized rules. A nan or
    infinite integrand value is an EvaluationError naming x.
    """
    z = complex(zeta)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError("laplace_sample: zeta must be finite")
    if z.imag < 0:
        raise ValidationError("laplace_sample: Im zeta must be >= 0")
    f = phi.evaluator
    re, im = z.real, z.imag
    width = min(1.0, math.pi / abs(re)) if re != 0.0 else 1.0

    lo, hi = phi.support
    if phi.compact:
        cutoff = hi
        tail = 0.0
    else:
        if phi.log_envelope is None:
            raise QuadratureError("laplace_sample: no tail envelope declared")
        cutoff = None
        tail = math.inf
        for k in range(0, 61):
            x_stop = 2.0**k
            t = _envelope_tail(phi.log_envelope, x_stop, 0, extra_decay=im)
            if t <= 0.25 * LAPLACE_ATOL:
                cutoff, tail = x_stop, t
                break
        if cutoff is None:
            raise QuadratureError(
                "laplace_sample: tail fails to close under declared decay"
            )
    if (cutoff - lo) / width > 2e5:
        raise QuadratureError("laplace_sample: panel budget exceeded at this zeta")

    def part(trig):
        def integrand(x: float) -> float:
            v = f(x)
            if v == 0.0:
                return 0.0
            v = v * math.exp(-im * x) * trig(re * x)
            if math.isfinite(v):
                return v
            raise _not_finite("laplace_sample", v, x)

        return integrand

    re_part, im_part = part(math.cos), part(math.sin)

    total = 0.0 + 0.0j
    err = tail
    a = lo
    while a < cutoff:
        b = min(a + width, cutoff)
        vr, er = _panel_quad(re_part, a, b, 1e-14, 1e-12)
        vi, ei = _panel_quad(im_part, a, b, 1e-14, 1e-12)
        total += complex(vr, vi)
        err += er + ei
        a = b
    return LaplaceSample(zeta=z, value=total, abs_error=err)


# ---------------------------------------------------------------------------
# growth-envelope fits


@dataclass(frozen=True)
class GrowthFit:
    """Envelope fit r_p <= log_C + p*log_h from the upper convex hull.

    log_h is the chord slope of the hull across the last quartile; drift is
    how much that slope moved when the last quartile is withheld. A positive
    drift above the tolerance means no finite h has been reached yet.
    """

    ok: bool
    log_h: float
    log_C: float
    residuals: Tuple[float, ...]
    drift: float
    note: str

    @property
    def h(self) -> float:
        return numerics.exp_or_inf(self.log_h)

    @property
    def C(self) -> float:
        return numerics.exp_or_inf(self.log_C)


def _upper_hull(points):
    hull: list = []
    for q in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (q[1] - y1) - (y2 - y1) * (q[0] - x1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def _tail_slope(points, tail_from: float) -> float:
    hull = _upper_hull(points)
    if len(hull) == 1:
        return 0.0
    anchor = hull[0]
    for q in hull[:-1]:
        if q[0] <= tail_from:
            anchor = q
    last = hull[-1]
    return (last[1] - anchor[1]) / (last[0] - anchor[0])


def fit_growth_envelope(
    ratios: Sequence[float], trend_tol: float = 0.05
) -> GrowthFit:
    """Fit sup-style constants for r_p <= log_C + p*log_h.

    Entries of -inf (zero coefficients) are skipped. The fit always folds
    the constants so residuals are <= 0; ok reports whether the tail slope
    had stabilized before the last quartile.
    """
    n = len(ratios)
    if n < 9:
        raise ValidationError("fit_growth_envelope: need at least 9 entries")
    points = [
        (float(p), float(r))
        for p, r in enumerate(ratios)
        if math.isfinite(r)
    ]
    if len(points) < 5:
        raise ValidationError("fit_growth_envelope: too few finite entries")
    P = points[-1][0]
    q0 = 0.75 * P
    log_h = _tail_slope(points, q0)
    head = [q for q in points if q[0] <= q0]
    if len(head) >= 3:
        head_slope = _tail_slope(head, 0.75 * head[-1][0])
    else:
        head_slope = log_h
    drift = log_h - head_slope
    ok = drift <= trend_tol
    note = "tail slope stable" if ok else (
        f"tail slope still rising (drift {drift:.3f} > {trend_tol:g})"
    )
    if not ok and len(points) >= 16 and math.isfinite(trend_tol):
        # a convex transient that settles into a plateau still admits a
        # finite radius; only a last-quartile slope that itself keeps
        # climbing refuses every fixed h
        xs = np.array([p for p, _ in points])
        ys = np.array([r for _, r in points])
        c1, c2 = numerics.two_window_slopes(xs, ys)
        if c2 - c1 <= trend_tol:
            ok = True
            log_h = max(log_h, c1, c2)
            drift = c2 - c1
            note = "tail slope stable after transient"
        else:
            drift = max(drift, c2 - c1)
    log_C = max(r - p * log_h for p, r in points)
    residuals = tuple(r - log_C - p * log_h for p, r in points)
    return GrowthFit(
        ok=ok,
        log_h=log_h,
        log_C=log_C,
        residuals=residuals,
        drift=drift,
        note=note,
    )


@dataclass(frozen=True)
class LambdaFit:
    """Membership fit |c_p| <= C h^p p! M_p with per-order residual slack."""

    ok: bool
    C: float
    h: float
    residuals: Tuple[float, ...]
    drift: float
    note: str


def lambda_fit(values: Sequence[float], M: WeightSequence) -> LambdaFit:
    """Least-slack fit of (c_p) against the scale C h^p p! M_p.

    Succeeds when the fitted h stops moving once the last quartile of
    orders is withheld, by fit_growth_envelope's default trend tolerance
    0.05; raw residuals are exposed either way.
    """
    if len(values) < 9:
        raise ValidationError("lambda_fit: need at least orders 0..8")
    ratios = []
    for p, c in enumerate(values):
        a = abs(c)
        if a == 0.0:
            ratios.append(-math.inf)
        else:
            ratios.append(math.log(a) - math.lgamma(p + 1) - M.log_M(p))
    fit = fit_growth_envelope(ratios)
    note = fit.note if fit.ok else (
        f"values not in the weighted class at this horizon; {fit.note}"
    )
    return LambdaFit(
        ok=fit.ok,
        C=fit.C,
        h=fit.h,
        residuals=fit.residuals,
        drift=fit.drift,
        note=note,
    )


# ---------------------------------------------------------------------------
# exact jets


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts: the entry
    type of exact complex jets, which carry no arithmetic of their own."""

    re: Fraction
    im: Fraction

    @staticmethod
    def lift(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussianRational(Fraction(v), Fraction(0))
        raise ValidationError(f"GaussianRational: cannot lift {type(v).__name__}")

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # must agree with Fraction for real values since __eq__ does
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


JetEntry = Union[int, Fraction, float, complex, GaussianRational]
_EXACT = (GaussianRational, int, Fraction)


@dataclass(frozen=True)
class Jet:
    """Derivative values g(0), g'(0), ..., g^(P)(0) of a germ at 0.

    The jet functions read every entry exactly, a float or complex one as the
    binary rational it holds, and give Fractions (GaussianRationals when
    complex) from exact entries and floats rounded once from any others; an
    exact 0 rounds to +0.0. A Jet may hold inf or nan; the jet functions
    refuse it.

    An exact result carries its reduced integer rows, which the next jet
    function reads as they are, and builds its entries on the first read of
    coefficients (==, hash, repr, to_json and exact all read them).
    """

    coefficients: Tuple[JetEntry, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("Jet: needs at least the constant term")

    def __getattr__(self, name):
        # reached only for the coefficients of an exact result not yet read
        rows = self.__dict__.get("_rows") if name == "coefficients" else None
        if rows is None:
            raise AttributeError(f"'Jet' object has no attribute {name!r}")
        re, im, d, _, cplx = rows
        values = tuple(map(Fraction, re, repeat(d)))
        if cplx:
            ims = map(Fraction, im, repeat(d)) if im else repeat(Fraction(0))
            values = tuple(map(GaussianRational, values, ims))
        object.__setattr__(self, "coefficients", values)
        return values

    @property
    def order(self) -> int:
        rows = self.__dict__.get("_rows")
        return len(rows[0] if rows else self.coefficients) - 1

    @property
    def exact(self) -> bool:
        return all(map(isinstance, self.coefficients, repeat(_EXACT)))

    def to_json(self) -> list:
        return [
            str(c) if isinstance(c, _EXACT) else numerics.jsonable(c)
            for c in self.coefficients
        ]


def _complex(values: Sequence) -> bool:
    return any(map(isinstance, values, repeat((GaussianRational, complex))))


def _require_same_length(a: Jet, b: Jet, where: str) -> None:
    if a.order != b.order:
        raise ValidationError(f"{where}: jets must have equal length")


def _integer_rows(jet: Jet) -> tuple:
    """(re, im, d, exact, cplx): a jet's entries as a real and an imaginary row of
    ints over their lcm d > 0 (im None when all zero), a float or complex entry
    read as the binary rational it holds, and whether every entry is exact and
    whether any is complex. Read once per Jet: an exact result carries them,
    and a Jet built on a tuple keeps them."""
    rows = jet.__dict__.get("_rows")
    if rows is not None:
        return rows
    values = jet.coefficients
    n, cplx = len(values), _complex(values)
    exact = all(map(isinstance, values, repeat(_EXACT)))
    parts = values
    if cplx:
        pairs = [(v.re, v.im) if isinstance(v, GaussianRational) else (v.real, v.imag) for v in values]
        parts = [a for a, _ in pairs] + [b for _, b in pairs]
    try:
        ratios = [v.as_integer_ratio() for v in parts]
    except (OverflowError, ValueError):  # inf or nan has no rational value
        raise ValidationError("Jet: entries must be finite") from None
    except AttributeError:  # no as_integer_ratio, e.g. a numpy integer
        raise ValidationError(
            "Jet: entries must be int, Fraction, float, complex or GaussianRational"
        ) from None
    d = math.lcm(*[q for _, q in ratios])
    numerators = [a * (d // q) for a, q in ratios]
    im = numerators[n:]
    rows = (numerators[:n], im if any(im) else None, d, exact, cplx)
    if isinstance(values, tuple):  # a list could change under the kept rows
        object.__setattr__(jet, "_rows", rows)
    return rows


def _rounded(a: int, d: int) -> float:
    """a / d for d > 0 correctly rounded, or +-inf where it overflows a float."""
    try:
        return a / d
    except OverflowError:
        return math.inf if a > 0 else -math.inf


def _jet(re: list, im: list, d: int, exact: bool, cplx: bool) -> Jet:
    """The jet (re + i im) / d, d > 0: an exact one keeps its rows, reduced by one
    gcd, and builds its entries when read; any other is rounded once now, to
    complex entries when cplx."""
    im = im if any(im) else None
    if exact:
        g = math.gcd(d, *re, *(im or ()))
        if g > 1:
            re, d = [a // g for a in re], d // g
            im = im and [b // g for b in im]
        jet = Jet.__new__(Jet)
        object.__setattr__(jet, "_rows", (re, im, d, True, cplx))
        return jet
    if cplx:
        return Jet(tuple(complex(_rounded(a, d), _rounded(b, d)) for a, b in zip(re, im or repeat(0))))
    return Jet(tuple(map(_rounded, re, repeat(d))))


@functools.cache
def _binomial_rows(n: int) -> tuple:
    """The rows (C(p,0), ..., C(p,p)) for p < n."""
    return tuple(tuple(math.comb(p, j) for j in range(p + 1)) for p in range(n))


def _operand(gr: list, gi: Optional[list], twist: bool) -> tuple:
    """(yr, yi, ys) for the second operand y = G, or G~_k = (-i)^k G_k when twist
    (the phase functions are the plain ones on G~). yi is None for a real y.
    For a y real at even k and imaginary at odd k, as G~ is for a real G, ys
    holds yr at even k and yi at odd k (sigma_k G_k for G~, sigma = (1, -1, -1,
    1)[k mod 4]); otherwise ys is None."""
    if twist:
        pairs = list(enumerate(zip(gr, gi or repeat(0))))
        gr = [(a, b, -a, -b)[k % 4] for k, (a, b) in pairs]
        gi = [(b, -a, -b, a)[k % 4] for k, (a, b) in pairs]
        gi = gi if any(gi) else None
    if gi is None or any(gr[1::2]) or any(gi[::2]):
        return gr, gi, None
    ys = list(gr)
    ys[1::2] = gi[1::2]
    return gr, gi, ys


def _products(row: tuple, p: int, xr: list, xi: Optional[list], y: tuple) -> Tuple[int, int]:
    """(re, im) of sum_j row[j] x_j y_(p-j) over the j < len(xr), for x = xr + i xi
    (xi None when real) and y from _operand. On a y with ys, each product
    row[j] ys_(p-j) x_j is taken once and goes to the real or the imaginary sum
    by the parity of p - j."""
    yr, yi, ys = y
    if ys is not None:
        cy = list(map(mul, row, ys[p::-1]))
        t = list(map(mul, cy, xr))
        even, odd = p & 1, 1 - (p & 1)  # first j with p - j even, odd
        re, im = sum(t[even::2]), sum(t[odd::2])
        if xi is not None:
            t = list(map(mul, cy, xi))
            re, im = re - sum(t[odd::2]), im + sum(t[even::2])
        return re, im
    if yi is None and xi is None:
        return sum(map(mul, map(mul, row, yr[p::-1]), xr)), 0
    cy = list(map(mul, row, yr[p::-1]))
    re, im = sum(map(mul, cy, xr)), 0 if xi is None else sum(map(mul, cy, xi))
    if yi is not None:
        cy = list(map(mul, row, yi[p::-1]))
        im += sum(map(mul, cy, xr))
        if xi is not None:
            re -= sum(map(mul, cy, xi))
    return re, im


def _convolve(xr: list, xi: Optional[list], y: tuple) -> Tuple[list, list]:
    """Rows (re, im) of out_p = sum_j C(p,j) x_j y_(p-j), summed over ints."""
    out = [_products(row, p, xr, xi, y) for p, row in enumerate(_binomial_rows(len(xr)))]
    return [a for a, _ in out], [b for _, b in out]


def _solve(xr: list, xi: Optional[list], dx: int, y: tuple, dy: int) -> tuple:
    """Rows and denominator of b with sum_j C(p,j) b_j Y_(p-j) = c_p for
    c = (xr + i xi)/dx and Y = y/dy: the triangular solve
    b_p = (c_p - sum_{j<p} C(p,j) b_j Y_(p-j)) / Y_0 over ints. The rows of
    b_0..b_p stay over the least common denominator e of those entries, so a
    result with small denominators keeps small integers throughout."""
    yr, yi, _ = y
    y0r, y0i = yr[0], yi[0] if yi else 0
    if not (y0r or y0i):
        raise ValidationError("jet_reciprocal: constant term must be nonzero")
    # b_p = t / (e dx Y_0) = t conj(y0) / (e dx |y0|^2) for t = x_p e dy - s dx
    dn = dx * (y0r * y0r + y0i * y0i if y0i else y0r)
    br, bi, e, edy = [], [], 1, dy
    cplx = False  # whether some b_j so far has a nonzero imaginary part
    for p, row in enumerate(_binomial_rows(len(xr))):
        sr, si = _products(row, p, br, bi if cplx else None, y)
        tr, ti = xr[p] * edy - sr * dx, (xi[p] * edy if xi else 0) - si * dx
        if y0i:
            tr, ti = tr * y0r + ti * y0i, ti * y0r - tr * y0i
        # e grows by the least f that makes f t / dn integral
        f = abs(dn) // math.gcd(tr, ti, dn)
        if f > 1:
            br, bi, e, edy = [v * f for v in br], [v * f for v in bi], e * f, edy * f
            tr, ti = tr * f, ti * f
        br.append(tr // dn)
        bi.append(ti // dn)
        cplx = cplx or ti != 0
    return br, bi, e


def jet_reciprocal(G: Jet) -> Jet:
    """Derivative values of 1/G at 0: the inversion of the unit jet (1, 0, ..., 0)."""
    gr, gi, dg, exact, cplx = _integer_rows(G)
    return _jet(*_solve([1] + [0] * (len(gr) - 1), None, 1, _operand(gr, gi, False), dg), exact, cplx)


def _apply(c: Jet, G: Jet, where: str, inverse: bool, twist: bool) -> Jet:
    _require_same_length(c, G, where)
    (xr, xi, dx, x_exact, x_cplx), (gr, gi, dg, g_exact, g_cplx) = _integer_rows(c), _integer_rows(G)
    y = _operand(gr, gi, twist)
    rows = _solve(xr, xi, dx, y, dg) if inverse else (*_convolve(xr, xi, y), dx * dg)
    return _jet(*rows, x_exact and g_exact, twist or x_cplx or g_cplx)


def inversion_coeffs(c: Jet, G: Jet) -> Jet:
    """b_p = sum_j C(p,j) c_j (1/G)^(p-j)(0), by the triangular solve of
    forward_binomial(b, G) = c."""
    return _apply(c, G, "inversion_coeffs", True, False)


def forward_binomial(b: Jet, G: Jet) -> Jet:
    """c_p = sum_j C(p,j) b_j G^(p-j)(0); inverse of inversion_coeffs."""
    return _apply(b, G, "forward_binomial", False, False)


def phase_inversion_coeffs(c: Jet, G: Jet) -> Jet:
    """b_p = (-i)^p sum_j C(p,j) i^j c_j (1/G)^(p-j)(0): inversion_coeffs against
    G~_k = (-i)^k G_k, since (-i)^p i^j = (-i)^(p-j) and 1/G~ is the twist of 1/G."""
    return _apply(c, G, "phase_inversion_coeffs", True, True)


def phase_forward_binomial(b: Jet, G: Jet) -> Jet:
    """Inverse of phase_inversion_coeffs: forward_binomial against G~."""
    return _apply(b, G, "phase_forward_binomial", False, True)


# ---------------------------------------------------------------------------
# Taylor-mode derivatives for the bump


def _exp_series(f: Sequence[float]) -> list:
    """Taylor coefficients of exp(F) from those of F, by g' = F' g."""
    n = len(f)
    g = [0.0] * n
    g[0] = math.exp(f[0]) if f[0] > _LOG_TINY else 0.0
    if g[0] == 0.0:
        return g
    for m in range(1, n):
        acc = 0.0
        for k in range(1, m + 1):
            acc += k * f[k] * g[m - k]
        g[m] = acc / m
    return g


def bump01_taylor(x: float, order: int) -> Tuple[float, ...]:
    """Derivative values of the unit bump at x, orders 0..order.

    Exact recursions on the Taylor coefficients of -1/x and -1/(1-x);
    outside (0,1), and inside the underflow shoulders at the endpoints,
    every derivative is reported as exactly 0.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise ValidationError("bump01_taylor: order must be an integer >= 0")
    if order > 64:
        raise ValidationError("bump01_taylor: order beyond supported cap 64")
    if x <= 2e-3 or x >= 1.0 - 2e-3:
        return (0.0,) * (order + 1)
    n = order + 1
    f1 = [0.0] * n
    f2 = [0.0] * n
    xp = 1.0 / x
    yp = 1.0 / (1.0 - x)
    s1, s2 = -1.0, -1.0
    for k in range(n):
        f1[k] = s1 * xp
        f2[k] = s2 * yp
        xp /= x
        yp /= 1.0 - x
        s1 = -s1
    g1 = _exp_series(f1)
    g2 = _exp_series(f2)
    out = []
    fact = 1.0
    for m in range(n):
        acc = 0.0
        for k in range(m + 1):
            acc += g1[k] * g2[m - k]
        out.append(acc * fact)
        fact *= m + 1
    return tuple(out)


def derivative_function(phi: TestFunction) -> TestFunction:
    """The first derivative of a compactly supported Taylor-mode function."""
    if phi.taylor_evaluator is None:
        raise ValidationError(
            "derivative_function: needs a Taylor-mode evaluator "
            "(finite differences above order 4 are too unstable to offer)"
        )
    if not phi.compact:
        raise ValidationError("derivative_function: only for compact support")
    base = phi.taylor_evaluator

    def ev(x: float) -> float:
        return base(x, 1)[1]

    def taylor(x: float, order: int) -> Tuple[float, ...]:
        return base(x, order + 1)[1:]

    return TestFunction(
        kind="user",
        name=f"{phi.name}'",
        evaluator=ev,
        support=phi.support,
        decay_exponent=math.inf,
        taylor_evaluator=taylor,
    )


# ---------------------------------------------------------------------------
# pointwise Taylor bound


@dataclass(frozen=True)
class TaylorBoundReport:
    """Outcome of the flatness bound |phi(x)| <= C h^p M_p x^p."""

    ok: bool
    h: float
    norm: float
    order_cap: int
    witness: Optional[Tuple[int, float]]
    note: str


def taylor_bound_check(
    phi: TestFunction,
    order_cap: int,
    M: WeightSequence,
) -> TaylorBoundReport:
    """Fit the derivative norm, then assert the pointwise flatness bound.

    The norm C and radius h come from the envelope fit of the measured
    derivative sups against h^p p! M_p; the asserted bound is
    |phi(x)| <= C h^p M_p x^p, up to TAYLOR_LOG_TOL in log |phi|, for every
    order p <= order_cap and x on a midpoint grid of TAYLOR_GRID_POINTS.
    """
    if phi.taylor_evaluator is None:
        raise ValidationError("taylor_bound_check: needs a Taylor-mode evaluator")
    if order_cap < 8:
        raise ValidationError("taylor_bound_check: order_cap must be >= 8")
    lo, hi = phi.support
    if not (math.isfinite(hi) and hi <= 1.0):
        raise ValidationError("taylor_bound_check: support must lie inside [0, 1]")
    xs = [lo + (hi - lo) * (j + 0.5) / TAYLOR_GRID_POINTS for j in range(TAYLOR_GRID_POINTS)]
    sup = [0.0] * (order_cap + 1)
    values = []
    for x in xs:
        derivs = phi.taylor_evaluator(x, order_cap)
        values.append(derivs[0])
        for p in range(order_cap + 1):
            a = abs(derivs[p])
            if a > sup[p]:
                sup[p] = a
    ratios = [
        (math.log(sup[p]) - math.lgamma(p + 1) - M.log_M(p))
        if sup[p] > 0.0
        else -math.inf
        for p in range(order_cap + 1)
    ]
    fit = fit_growth_envelope(ratios, trend_tol=math.inf)
    log_h, log_C = fit.log_h, fit.log_C
    witness = None
    for p in range(order_cap + 1):
        bound_base = log_C + p * log_h + M.log_M(p)
        for x, v in zip(xs, values):
            if v == 0.0:
                continue
            if math.log(abs(v)) > bound_base + p * math.log(x) + TAYLOR_LOG_TOL:
                witness = (p, x)
                break
        if witness:
            break
    ok = witness is None
    note = (
        f"bound holds at h = {fit.h:.4g}"
        if ok
        else f"bound violated at order {witness[0]}, x = {witness[1]:.6g}"
    )
    return TaylorBoundReport(
        ok=ok,
        h=fit.h,
        norm=fit.C,
        order_cap=order_cap,
        witness=witness,
        note=note,
    )
