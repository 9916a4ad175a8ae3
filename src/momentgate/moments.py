"""Moments, origin moments, Laplace samples, growth-envelope fits, and exact
jet inversion.

Test functions are plain evaluators carrying a decay declaration; the
quadrature routines refuse work the declaration cannot support. Jet
operations run exactly over rationals (Gaussian rationals for the
phase-twisted variants) and fall back to complex floats otherwise.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
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
_UNITS = (1 + 0j, 1j, -1 + 0j, -1j)  # i^k for k = 0..3, the phase twists

# Accuracy targets of the quadratures: relative for moment (and
# moment_with_error) and moment_origin, absolute for laplace_sample.
MOMENT_RTOL = 1e-10
ORIGIN_RTOL = 1e-8
LAPLACE_ATOL = 1e-12


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
            v = abs(evaluator(x))
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


def _panel_quad(f, a: float, b: float, epsabs: float, epsrel: float):
    # imported here: scipy.integrate takes most of the package's import time,
    # and only moment quadrature needs it
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        v, e = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    return float(v), float(e)


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


def moment_with_error(phi: TestFunction, p: int):
    """(value, abs error estimate) for int_0^inf x^p phi(x) dx, to MOMENT_RTOL."""
    _check_order(p, 64, "moment")
    if math.isfinite(phi.decay_exponent) and phi.decay_exponent <= p + 1:
        raise ValidationError(
            f"moment: declared decay (1+x)^-{phi.decay_exponent:g} cannot dominate "
            f"x^{p}; need exponent > {p + 1}"
        )
    f = phi.evaluator

    def integrand(x: float) -> float:
        return (x**p) * f(x)

    lo, hi = phi.support
    if phi.compact:
        v, e = _panel_quad(integrand, lo, hi, 1e-14, 1e-11)
        return v, e

    # locate the dominant dyadic scale, then integrate outward from it
    best_k, best = 0, -math.inf
    for k in range(-80, 241):
        x = 2.0**k
        try:
            val = abs(f(x))
            log_val = math.log(val) if val > 0.0 else -math.inf
        except OverflowError:
            # evaluator gave out at an extreme probe; the declared envelope
            # stands in, and without one the failure is the caller's
            if phi.log_envelope is None:
                raise EvaluationError(
                    f"moment: evaluator overflowed at x = {x:g} and no "
                    "log_envelope was declared"
                )
            log_val = phi.log_envelope(x)
        if log_val > -math.inf:
            score = (p + 1) * k * math.log(2.0) + log_val
            if score > best:
                best_k, best = k, score
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


def moment_origin(phi: TestFunction, p: int) -> float:
    """mu0_p(phi) = int_0^1 phi(x) / x^p dx for phi flat at the origin, to
    ORIGIN_RTOL.

    A pre-check probes phi(10^-k); growth of phi(x)/x^p toward 0 means the
    integrand blows up and the order is refused.
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
            lv = math.log(abs(f(x))) if f(x) != 0.0 else -math.inf
            probes.append(lv + k * p * math.log(10.0))
        if probes[11] >= probes[5] and probes[11] > -460.0:
            raise QuadratureError(
                f"moment_origin: integrand grows toward 0 at order p={p}; "
                "test function must vanish to infinite order"
            )

    def integrand(x: float) -> float:
        v = f(x)
        return 0.0 if v == 0.0 else v * math.exp(-p * math.log(x))

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


def laplace_sample(phi: TestFunction, zeta: complex) -> LaplaceSample:
    """Oscillation-aware quadrature of the Laplace-type sample at zeta, its
    tail cut where the declared envelope bounds it by LAPLACE_ATOL / 4.

    Panels never exceed half a period of exp(i x Re zeta) (capped at 1), so
    the oscillation stays resolved without specialized rules.
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

    def re_part(x: float) -> float:
        v = f(x)
        if v == 0.0:
            return 0.0
        return v * math.exp(-im * x) * math.cos(re * x)

    def im_part(x: float) -> float:
        v = f(x)
        if v == 0.0:
            return 0.0
        return v * math.exp(-im * x) * math.sin(re * x)

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
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def lift(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussianRational(Fraction(v), Fraction(0))
        raise ValidationError(f"GaussianRational: cannot lift {type(v).__name__}")

    def __add__(self, other):
        o = GaussianRational.lift(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.lift(other))

    def __rsub__(self, other):
        return GaussianRational.lift(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.lift(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.lift(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("GaussianRational division by zero")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return GaussianRational.lift(other) / self

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


@dataclass(frozen=True)
class Jet:
    """Derivative values g(0), g'(0), ..., g^(P)(0) of a germ at 0."""

    coefficients: Tuple[JetEntry, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ValidationError("Jet: needs at least the constant term")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def exact(self) -> bool:
        return all(
            isinstance(c, (GaussianRational, int, Fraction))
            for c in self.coefficients
        )

    def to_json(self) -> list:
        return [
            str(c) if isinstance(c, (int, Fraction, GaussianRational)) else numerics.jsonable(c)
            for c in self.coefficients
        ]


def _jet_entries(*jets: Jet) -> list:
    """The entry lists of the jets. ints become Fractions so that division
    stays exact; a GaussianRational has no float arithmetic, so one that
    meets an inexact entry turns every entry into a complex float."""
    rows = [j.coefficients for j in jets]
    if not all(j.exact for j in jets) and any(
        isinstance(v, GaussianRational) for row in rows for v in row
    ):
        return [[complex(v) for v in row] for row in rows]
    return [[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows]


def _require_same_length(a: Jet, b: Jet, where: str) -> None:
    if a.order != b.order:
        raise ValidationError(f"{where}: jets must have equal length")


def _rational(*jets: Jet) -> bool:
    return all(isinstance(v, (int, Fraction)) for j in jets for v in j.coefficients)


def _integer_rows(values: Sequence) -> Tuple[list, int, list]:
    """(real row, d, imaginary row): exact entries as ints over their lcm d."""
    n = len(values)
    if any(isinstance(v, GaussianRational) for v in values):
        values = [GaussianRational.lift(v) for v in values]
        values = [v.re for v in values] + [v.im for v in values]
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in ratios])
    numerators = [a * (d // q) for a, q in ratios]
    return numerators[:n], d, numerators[n:] or [0] * n


@functools.cache
def _binomial_rows(n: int) -> tuple:
    """The rows (C(p,0), ..., C(p,p)) for p < n."""
    return tuple(tuple(math.comb(p, j) for j in range(p + 1)) for p in range(n))


def _convolve(x: Jet, y: list, dy: int) -> Jet:
    """sum_j C(p,j) x_j y_(p-j) for the rational x and y / dy, summed over ints."""
    xs, dx, _ = _integer_rows(x.coefficients)
    d, rows = dx * dy, enumerate(_binomial_rows(len(xs)))
    return Jet(tuple(Fraction(sum(map(mul, map(mul, r, xs), y[p::-1])), d) for p, r in rows))


def _reciprocal(g: list, d: int) -> Tuple[list, int]:
    """Numerators d H_n g_0^(P-n) of 1/G over g_0^(P+1), G = g/d of order P, with
    H_0 = 1 and H_n = -sum_{k=1..n} C(n,k) g_k g_0^(k-1) H_(n-k) (Leibniz)."""
    if g[0] == 0:
        raise ValidationError("jet_reciprocal: constant term must be nonzero")
    powers = [g[0] ** k for k in range(len(g) + 1)]
    gp = list(map(mul, g[1:], powers))  # g_k g_0^(k-1) for k >= 1
    hs = [1]
    for row in _binomial_rows(len(g))[1:]:
        hs.append(-sum(map(mul, map(mul, row[1:], gp), hs[::-1])))
    return [d * h * p for h, p in zip(hs, powers[-2::-1])], powers[-1]


def jet_reciprocal(G: Jet) -> Jet:
    """Derivative values of 1/G at 0 by the exact Leibniz recursion."""
    if _rational(G):
        h, d = _reciprocal(*_integer_rows(G.coefficients)[:2])
        return Jet(tuple(Fraction(v, d) for v in h))
    (g,) = _jet_entries(G)
    if g[0] == 0:
        raise ValidationError("jet_reciprocal: constant term must be nonzero")
    h = [1 / g[0]]
    for n in range(1, len(g)):
        acc = 0
        for k in range(1, n + 1):
            acc = acc + math.comb(n, k) * g[k] * h[n - k]
        h.append(-acc / g[0])
    return Jet(tuple(h))


def _binomial_convolution(x: Sequence, y: Sequence) -> list:
    """out_p = sum_j C(p,j) x_j y_(p-j), p < len(x), in the entries' own arithmetic."""
    out = []
    for p in range(len(x)):
        acc = 0
        for j in range(p + 1):
            acc = acc + math.comb(p, j) * x[j] * y[p - j]
        out.append(acc)
    return out


def inversion_coeffs(c: Jet, G: Jet) -> Jet:
    """b_p = sum_j C(p,j) c_j (1/G)^(p-j)(0); exact over rationals."""
    _require_same_length(c, G, "inversion_coeffs")
    if not _rational(c, G):
        cs, gs = _jet_entries(c, G)
        h = jet_reciprocal(Jet(tuple(gs))).coefficients
        return Jet(tuple(_binomial_convolution(cs, h)))
    return _convolve(c, *_reciprocal(*_integer_rows(G.coefficients)[:2]))


def forward_binomial(b: Jet, G: Jet) -> Jet:
    """c_p = sum_j C(p,j) b_j G^(p-j)(0); inverse of inversion_coeffs."""
    _require_same_length(b, G, "forward_binomial")
    if not _rational(b, G):
        return Jet(tuple(_binomial_convolution(*_jet_entries(b, G))))
    return _convolve(b, *_integer_rows(G.coefficients)[:2])


def _complex_phase_convolution(x: Jet, y: Sequence) -> Jet:
    """out_p = (-i)^p sum_j C(p,j) i^j x_j y_(p-j) over complex floats."""
    xs = [_UNITS[j % 4] * complex(v) for j, v in enumerate(x.coefficients)]
    raw = _binomial_convolution(xs, [complex(v) for v in y])
    return Jet(tuple(_UNITS[-p % 4] * v for p, v in enumerate(raw)))


def _phase_convolution(x: Jet, yr: list, dy: int, yi: list) -> Jet:
    """(-i)^p sum_j C(p,j) i^j x_j y_(p-j), x exact, y = (yr + i yi)/dy: twists are
    swaps and sign changes of integer pairs, real and imaginary sums share one
    pass, and the cross sums run only for a nonzero yi."""
    ar, dx, ai = _integer_rows(x.coefficients)
    xr = [(a, -b, -a, b)[j % 4] for j, (a, b) in enumerate(zip(ar, ai))]
    xi = [(b, a, -b, -a)[j % 4] for j, (a, b) in enumerate(zip(ar, ai))]
    cross, d, out = any(yi), dx * dy, []
    for p, row in enumerate(_binomial_rows(len(xr))):
        cy = list(map(mul, row, yr[p::-1]))
        re, im = sum(map(mul, cy, xr)), sum(map(mul, cy, xi))
        if cross:
            cy = list(map(mul, row, yi[p::-1]))
            re, im = re - sum(map(mul, cy, xi)), im + sum(map(mul, cy, xr))
        re, im = ((re, im), (im, -re), (-re, -im), (-im, re))[p % 4]
        out.append(GaussianRational(Fraction(re, d), Fraction(im, d)))
    return Jet(tuple(out))


def phase_inversion_coeffs(c: Jet, G: Jet) -> Jet:
    """b_p = (-i)^p sum_j C(p,j) i^j c_j (1/G)^(p-j)(0)."""
    _require_same_length(c, G, "phase_inversion_coeffs")
    if not (c.exact and G.exact):
        h = jet_reciprocal(Jet(tuple(complex(v) for v in G.coefficients)))
        return _complex_phase_convolution(c, h.coefficients)
    g, d, gi = _integer_rows(G.coefficients)
    if any(gi):  # a complex G keeps the Gaussian-rational jet_reciprocal
        return _phase_convolution(c, *_integer_rows(jet_reciprocal(G).coefficients))
    return _phase_convolution(c, *_reciprocal(g, d), [])


def phase_forward_binomial(b: Jet, G: Jet) -> Jet:
    """Inverse of phase_inversion_coeffs: recovers c from b."""
    _require_same_length(b, G, "phase_forward_binomial")
    if not (b.exact and G.exact):
        return _complex_phase_convolution(b, G.coefficients)
    return _phase_convolution(b, *_integer_rows(G.coefficients))


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


def derivative_function(phi: TestFunction, n: int = 1) -> TestFunction:
    """The n-th derivative of a compactly supported Taylor-mode function."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError("derivative_function: n must be an integer >= 1")
    if phi.taylor_evaluator is None:
        raise ValidationError(
            "derivative_function: needs a Taylor-mode evaluator "
            "(finite differences above order 4 are too unstable to offer)"
        )
    if not phi.compact:
        raise ValidationError("derivative_function: only for compact support")
    base = phi.taylor_evaluator

    def ev(x: float) -> float:
        return base(x, n)[n]

    def taylor(x: float, order: int) -> Tuple[float, ...]:
        return base(x, order + n)[n:]

    return TestFunction(
        kind="user",
        name=f"{phi.name}'" if n == 1 else f"{phi.name}^({n})",
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
    grid_points: int
    witness: Optional[Tuple[int, float]]
    note: str


def taylor_bound_check(
    phi: TestFunction,
    order_cap: int,
    M: WeightSequence,
    grid_points: int = 1000,
    tol: float = 1e-9,
) -> TaylorBoundReport:
    """Fit the derivative norm, then assert the pointwise flatness bound.

    The norm C and radius h come from the envelope fit of the measured
    derivative sups against h^p p! M_p; the asserted bound is
    |phi(x)| <= C h^p M_p x^p for every order p <= order_cap and grid x.
    """
    if phi.taylor_evaluator is None:
        raise ValidationError("taylor_bound_check: needs a Taylor-mode evaluator")
    if order_cap < 8:
        raise ValidationError("taylor_bound_check: order_cap must be >= 8")
    if grid_points < 16:
        raise ValidationError("taylor_bound_check: grid_points must be >= 16")
    lo, hi = phi.support
    if not (math.isfinite(hi) and hi <= 1.0):
        raise ValidationError("taylor_bound_check: support must lie inside [0, 1]")
    xs = [lo + (hi - lo) * (j + 0.5) / grid_points for j in range(grid_points)]
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
            if math.log(abs(v)) > bound_base + p * math.log(x) + tol:
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
        grid_points=grid_points,
        witness=witness,
        note=note,
    )
