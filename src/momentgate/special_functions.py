"""Associated function, Poisson transform, and outer-function modulus checks.

The associated function of a weight sequence is the log-domain envelope
omega_M(t) = sup_p (p log t - log M_p). Feeding its doubled-argument,
factorial-shifted variant through the upper half-plane Poisson kernel yields
the harmonic function whose exponential is the modulus of an outer function G
with decay e^(-omega) along the shifted half-plane: log |G(z)| = -4 P(z + i).
Only the modulus is ever needed downstream, so the harmonic conjugate is
deliberately not computed.

For a power-law weight (log m_j = e log(j+1) with e > 1) the Poisson and G
points take a closed form instead. With M_0 = 1 and M log-convex, omega_M(t)
is the sum over j of (log t - log m_j)_+, and the Poisson integral of each
term is a sum of two dilogarithm imaginary parts (Koosis, The Logarithmic
Integral I, 1988; Lewin, Polylogarithms and Associated Functions, 1981):
scipy's spence for the few j with m_j below 4 scale |z|, and one
Hurwitz-zeta power series for all the others. poisson_transform itself stays
the quadrature below, for every weight, and so is the closed form's
cross-check.

Quadrature is adaptive around the kernel peak with doubling shells outward,
integrated several at a time, the center panel together with the first
shells, by G7/K15 panels on whole node arrays from which converged intervals
drop out; tails are truncated once the extrapolated remainder drops below
the requested tolerance, and a remainder that refuses to shrink raises
QuadratureError. An (lc) sequence's crossovers past the materialized
prefix are found by secant and chord probes in log(p+1). None of this moves
a bit: each value is that of integrating one interval per call, each
crossover that of a plain gallop-and-bisect search.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .conditions import check_condition
from .errors import EvaluationError, QuadratureError, ValidationError
from .numerics import log_array
from .sequences import BIG_INDEX_LIMIT, WeightSequence, derive


@dataclass(frozen=True)
class HalfPlanePoint:
    """A point x + iy of the (possibly shifted) upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        for field_name in ("x", "y"):
            v = getattr(self, field_name)
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValidationError(f"HalfPlanePoint: field {field_name!r} must be a finite number")

    def __abs__(self) -> float:
        return math.hypot(self.x, self.y)


def as_half_plane_point(z, min_y: float, where: str) -> HalfPlanePoint:
    """Coerce a complex number or HalfPlanePoint, enforcing Im z > min_y."""
    if isinstance(z, HalfPlanePoint):
        pt = z
    elif isinstance(z, complex):
        pt = HalfPlanePoint(z.real, z.imag)
    elif isinstance(z, (int, float)) and not isinstance(z, bool):
        pt = HalfPlanePoint(float(z), 0.0)
    else:
        raise ValidationError(f"{where}: expected a point of the half-plane, got {z!r}")
    if not pt.y > min_y:
        raise ValidationError(f"{where}: requires Im z > {min_y:g}, got Im z = {pt.y:g}")
    return pt


# ---------------------------------------------------------------------------
# associated function
# ---------------------------------------------------------------------------


def _crossings(
    seq: WeightSequence, log_u: np.ndarray, start: int, cap: int, log_m_start: float
) -> np.ndarray:
    """Smallest p in (start, cap] with log m_p >= log u at each entry of
    log_u, or cap + 1 where there is none; the predicate must fail at start,
    where log m is log_m_start (nan for start = -1, which has no quotient).

    For log-convex sequences the quotients are nondecreasing, so the
    envelope's increments p -> p+1, equal to log u - log m_p, change sign
    once: the crossover is the argmax. All entries search together, one
    seq.log_m_fast call per round, each keeping a bracket lo < p <= hi with
    hi = cap + 1 until a probe hits. log m is close to linear in log(p+1)
    for the gevrey-like families, so a row aims where a line through two
    known quotients crosses log u: while galloping, the secant through the
    last two values of lo (start's among them); once bracketed, the chord
    between the bracket ends. An aimed round probes ceil(aim) - 1 and
    ceil(aim), so an exact line closes the bracket at once. A row without
    an aim, or whose aimed round neither halved its bracket nor (galloping)
    doubled lo + 1, takes a plain round next: it doubles p while galloping
    and halves its bracket after. So every two rounds halve each bracket or
    double each lo + 1. The probe ceil(aim) lies strictly inside its row's
    bracket, so every round narrows every row, and only the predicate at
    the probes moves a bracket: for quotients nondecreasing in p as
    computed, the result is the smallest such p whatever the aims were.

    A secant through convex data can overshoot far past the crossover, up
    to the cap; every closed form answers each index up to it, and the
    search reads the prefix and the closed forms without growing the
    prefix. The evaluator's +-2 window absorbs rounding disagreements with
    the prefix. Its cap is at most 2^60, so every index fits in int64.
    """
    size = log_u.size
    lo, hi = np.full(size, start, np.int64), np.full(size, cap + 1, np.int64)
    f_lo, f_hi = np.full(size, log_m_start), np.full(size, np.nan)  # log m there
    back, f_back = np.full(size, -1, np.int64), np.full(size, np.nan)  # lo before the last probe below
    plain = np.zeros(size, dtype=bool)  # rows due for a plain round
    rows = np.arange(size)
    while rows.size:
        l, h, lu = lo[rows], hi[rows], log_u[rows]
        galloping = h > cap
        p = np.where(galloping, np.minimum(2 * l + 2, cap), (l + h) // 2)
        a, f_a = np.where(galloping, back[rows], l), np.where(galloping, f_back[rows], f_lo[rows])
        b, f_b = np.where(galloping, l, h), np.where(galloping, f_lo[rows], f_hi[rows])
        # a line through an unprobed end (nan, or log1p(-1) = -inf) or with
        # no rise gives a nan aim, and the row takes its plain probe; an
        # overflow to inf is clipped to the cap below
        with np.errstate(all="ignore"):
            x_a, x_b = np.log1p(a.astype(float)), np.log1p(b.astype(float))
            aim = np.expm1(x_b + (lu - f_b) * ((x_b - x_a) / (f_b - f_a)))
        aimed = ~plain[rows] & ~np.isnan(aim)
        top = np.where(galloping, cap, h - 1)[aimed]
        # clipped to the index range before the cast, which must not see inf
        c = np.ceil(np.clip(aim[aimed], 0.0, float(cap))).astype(np.int64)
        p[aimed] = np.minimum(np.maximum(c, l[aimed] + 2), top)
        f = seq.log_m_fast(np.concatenate((p, p[aimed] - 1)))
        f_p, f_q = f[: rows.size], f[rows.size :]
        hit = f_p >= lu
        up, down = rows[~hit], rows[hit]
        hi[down], f_hi[down] = p[hit], f_p[hit]
        back[up], f_back[up] = lo[up], f_lo[up]
        lo[up], f_lo[up] = p[~hit], f_p[~hit]
        # the aimed rows' second probe, p - 1, moves the bracket where p hit
        q, hit_p, hit_q = p[aimed] - 1, hit[aimed], f_q >= lu[aimed]
        down, up = hit_p & hit_q, hit_p & ~hit_q
        hi[rows[aimed][down]], f_hi[rows[aimed][down]] = q[down], f_q[down]
        lo[rows[aimed][up]], f_lo[rows[aimed][up]] = q[up], f_q[up]
        # an aimed round that did not halve the bracket (or, galloping, did
        # not double lo + 1) is followed by a plain one
        nl, nh = lo[rows], hi[rows]
        halved = np.where(galloping, (nh <= cap) | (nl + 1 >= 2 * (l + 1)), 2 * (nh - nl) <= h - l)
        plain[rows] = aimed & ~halved
        rows = rows[nh - nl > 1]
    return hi


_WINDOW = np.arange(-2, 3)


def associated_function(seq: WeightSequence, t: float) -> float:
    """omega_M(t) = sup over p >= 0 of (p log t - log M_p), with
    omega_M(0) = 0: one scalar call of omega_evaluator(seq)."""
    t = float(t)
    if not (t >= 0) or not math.isfinite(t):
        raise ValidationError("associated_function: t must be finite and >= 0")
    return omega_evaluator(seq)(t)


def omega_evaluator(seq: WeightSequence, scale: float = 1.0) -> Callable[[float], float]:
    """Even evaluator t -> omega_seq(scale * |t|); it keeps no memo of values.

    The returned callable's `many(ts)` evaluates a float array, and a scalar
    call is `many` on one entry. Every sequence takes one search: omega_M =
    omega_(M^c), where log M^c is the lower convex hull of p -> log M_p
    (Komatsu 1973), so np.searchsorted finds each crossover among the hull's
    slopes over the prefix, and the max of p log u - log M_p over the +-2
    window around it absorbs their rounding. For a certified (lc) sequence
    the slopes are the prefix quotients themselves; for any other they are
    the quotients' isotonic regression (Barlow et al. 1972), and
    scipy.optimize is imported on the first such search. Only an (lc)
    sequence searches past the prefix, each distinct |t| once (_crossings),
    on the closed-form log m that every certified (lc) family carries;
    without (lc), crossovers at the prefix end grow the prefix 4x, from
    log M_4096 on, and search again. So there are two reaches: index 2^60
    for an (lc) sequence with a closed-form log M, and BIG_INDEX_LIMIT - 2
    for all others, whose window reads the prefix up to the limit. Past it
    `many` raises EvaluationError, which the Poisson tail handler treats as
    truncation; so it does at once for an infinite or nan |t|, before any
    search.

    log |t| has math.log's bits, as the closed forms' logs do, from one
    compiled pass (numerics.log_array imports scipy.special on first call).

    Values read the prefix wherever it is materialized and the closed form
    past it, so they depend on earlier calls: any change that grows
    `len(seq._prefix)` past what callers asked for moves the bits of gfun.

    A sequence with a power law e > 1 (seq.power_exponent: gevrey(s) and its
    hat/check/power derivations) also gets `poisson(z)`, the PoissonResult of
    this weight at z in closed form (_power_law_poisson), which
    verify_poisson_lower_bound and the G checks read in place of the
    quadrature. It neither reads nor grows the prefix. For e <= 1 the sum of
    1/m_j diverges, and so does the Poisson integral.
    """
    if not (scale > 0) or not math.isfinite(scale):
        raise ValidationError("omega_evaluator: scale must be a finite number > 0")
    convex = seq.certifies("lc")
    cap_limit = 2**60 if convex and seq._closed_M is not None else BIG_INDEX_LIMIT - 2
    # the hull slopes over the prefix as last seen; the prefix only ever
    # grows, so its length identifies it
    slopes = np.zeros(0)

    def beyond(u: float) -> EvaluationError:
        return EvaluationError(f"associated function argmax beyond index {cap_limit} at t = {u:g}")

    def window(log_u: np.ndarray, pivot: np.ndarray) -> np.ndarray:
        """max of p log u - log M_p over p = pivot-2, ..., pivot+2 at each
        entry, skipping p < 0.

        The terms are five rows, one per offset, which the max folds
        elementwise: a reduction over a short inner axis costs some 30x
        more. The fold order may only move the sign of a zero maximum, and
        the last step makes that canonical.
        """
        p = _WINDOW[:, None] + pivot
        q = np.maximum(p, 0) if pivot.min(initial=2) < 2 else p
        terms = p * log_u - seq.log_M_extended(q)
        if q is not p:
            terms[q != p] = -math.inf
        # + 0.0 turns a -0.0 maximum (p = 0 term below u = 1) into +0.0
        return np.maximum(terms.max(axis=0), 0.0) + 0.0

    def many(ts: np.ndarray) -> np.ndarray:
        """omega at every entry of the 1-D array ts."""
        nonlocal slopes
        u = scale * np.abs(np.asarray(ts, dtype=float))
        out = np.zeros(u.size)  # +0.0 at u == 0
        live = u.nonzero()[0]
        u = u[live]
        if not np.isfinite(u).all():  # no crossover to search for
            raise beyond(u[~np.isfinite(u)][0])
        log_u = log_array(u)
        # first p with slope_p >= log u: the hull vertex where the terms
        # p log u - log M_p peak. Without (lc) the crossovers at the prefix
        # end grow it 4x, from log M_4096 up to the limit, and search again.
        pivot, rows, grow = np.zeros(u.size, np.int64), np.arange(u.size), 4096
        while rows.size:
            if not convex:
                seq.log_M(grow)
            n = len(seq._prefix) - 1
            if slopes.size != n:
                slopes = seq.log_m_array(n - 1)
                if not convex:  # loaded on first use, as log_array loads scipy.special
                    from scipy.optimize import isotonic_regression

                    slopes = isotonic_regression(slopes).x
            pivot[rows] = slopes.searchsorted(log_u[rows])
            rows = rows[pivot[rows] == n]
            if convex or n == BIG_INDEX_LIMIT:
                break
            grow = min(4 * n, BIG_INDEX_LIMIT)
        if convex and rows.size:
            # each distinct |t| once: adjacent shells share their panel ends
            _, first, where = np.unique(u[rows], return_index=True, return_inverse=True)
            last = slopes[-1] if n else math.nan
            pivot[rows] = _crossings(seq, log_u[rows][first], n - 1, cap_limit, last)[where]
        ok = pivot <= cap_limit  # a prefix at the limit can hold pivots past it
        if not ok.all():  # nodes below the first unreachable one still grow the prefix
            out[live[ok]] = window(log_u[ok], pivot[ok])
            raise beyond(u[~ok].min())
        out[live] = window(log_u, pivot)
        return out

    def omega(t: float) -> float:
        return float(many(np.array([t]))[0])

    omega.many = many
    e = seq.power_exponent
    if e is not None and e > 1:
        omega.poisson = lambda z: _power_law_poisson(e, scale, z)
    return omega


# ---------------------------------------------------------------------------
# Poisson transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonResult:
    """Value of (y/pi) * integral of omega(t) / ((t-x)^2 + y^2) with an
    absolute error estimate (quadrature error plus truncated-tail bound), the
    radius the shells reached and their count; a closed-form point has
    radius inf and no shells."""

    value: float
    abs_error: float
    radius: float
    shells: int


# G7/K15 on [-1, 1] (QUADPACK qk15, Piessens et al. 1983): the Kronrod
# abscissae from the outside in; the Gauss points are the odd ones and 0
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK + _WGK[-2::-1])
_GAUSS = np.array([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0])
# the degree-14 interpolant through the nodes, evaluated at -1 and +1
_ENDS = np.array(
    [
        [math.prod((e - xk) / (xj - xk) for k, xk in enumerate(_NODES) if k != j) for e in (-1.0, 1.0)]
        for j, xj in enumerate(_NODES)
    ]
)

# per-interval budget and subinterval limit of the scipy.integrate.quad
# calls this quadrature replaced
_EPSABS, _EPSREL, _LIMIT = 1e-13, 1e-10, 100
# doubling shells poisson_transform integrates before it gives up
_MAX_SHELLS = 60
_EPS50 = 50.0 * np.finfo(float).eps


def _evaluate(f, a: np.ndarray, b: np.ndarray, extra: np.ndarray):
    """f at the nodes of every panel [a_i, b_i] (one row per panel) and at
    the points `extra`, all in one call of the array function f."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    values = f(np.concatenate(((c[:, None] + h[:, None] * _NODES).ravel(), extra)))
    cut = a.size * _NODES.size
    return values[:cut].reshape(a.size, _NODES.size), values[cut:]


def _gk15(fv: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray):
    """Kronrod value and error of each panel from f at its nodes (rows of fv)
    and at its ends (fa, fb).

    The error is |K15 - G7|, at least 50 eps times the integral of |f|, plus
    an end term: a kink of the weight in the gap between a panel's outermost
    node and its end is invisible to the nodes, so the gap is charged with
    how far f at the end misses the node interpolant there. The sums are
    np.einsum, not BLAS `@`, so a panel's bits never depend on its batch size.
    """
    h = 0.5 * (b - a)
    width = np.abs(h)
    value = np.einsum("ij,j->i", fv, _KRONROD) * h
    gauss = np.einsum("ij,j->i", fv, _GAUSS) * h
    err = np.maximum(np.abs(value - gauss), _EPS50 * width * np.einsum("ij,j->i", np.abs(fv), _KRONROD))
    ends = np.einsum("ij,jk->ik", fv, _ENDS)
    gap = 0.5 * (1.0 - _XGK[0]) * width
    return value, err + gap * (np.abs(ends[:, 0] - fa) + np.abs(ends[:, 1] - fb))


def _integrate(f, intervals: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """(value, error) of the integral of the array function f over each
    interval, by globally adaptive G7/K15 as in QUADPACK's qag.

    An interval is done once its summed error is within
    max(_EPSABS, _EPSREL * |value|), it has _LIMIT subintervals, or qag's
    roundoff counters trip. Until then its worst subintervals are bisected,
    as few as bring the error of the rest within that budget. All intervals
    share one call of f per level.

    A closed interval never reopens, since none of its panels is split
    again: its (value, error) is recorded as it closes and its panels leave
    the working set. The open intervals' panels keep their order, so each
    np.bincount still adds an interval's panels in the order it always did.
    Only the split rule's running error sum spans the intervals, so its
    rounding, and with it the bits, could in principle depend on what else
    is in the batch; the golden and Poisson bit pins check that it does not.
    """
    n = len(intervals)
    a = np.array([lo for lo, _ in intervals], dtype=float)
    b = np.array([hi for _, hi in intervals], dtype=float)
    fv, ends = _evaluate(f, a, b, np.concatenate((a, b)))
    fa, fb = ends[:n], ends[n:]
    value, err = _gk15(fv, a, b, fa, fb)
    owner = np.arange(n)
    roundoff1 = np.zeros(n)
    roundoff2 = np.zeros(n)
    done_value, done_err = np.zeros(n), np.zeros(n)
    while True:
        total = np.bincount(owner, value, minlength=n)
        err_sum = np.bincount(owner, err, minlength=n)
        budget = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        count = np.bincount(owner, minlength=n)
        # an interval that left the working set has count 0 and stays shut
        open_ = (err_sum > budget) & (count < _LIMIT) & (roundoff1 < 6) & (roundoff2 < 20)
        shut = ~open_ & (count > 0)
        done_value[shut], done_err[shut] = total[shut], err_sum[shut]
        if not open_.any():
            return [(float(v), float(e)) for v, e in zip(done_value, done_err)]
        # worst first within each interval; split while the rest is over budget
        order = np.lexsort((-err, owner))
        o = owner[order]
        first = np.searchsorted(o, np.arange(n))
        cum = np.cumsum(err[order])
        worse = cum - err[order] - np.where(first > 0, cum[first - 1], 0.0)[o]
        rank = np.arange(order.size) - first[o]
        split = order[open_[o] & (err_sum[o] - worse > budget[o]) & (rank < _LIMIT - count[o])]
        m = split.size
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate((a[split], mid))
        new_b = np.concatenate((mid, b[split]))
        fv, f_mid = _evaluate(f, new_a, new_b, mid)
        new_fa = np.concatenate((fa[split], f_mid))
        new_fb = np.concatenate((f_mid, fb[split]))
        new_value, new_err = _gk15(fv, new_a, new_b, new_fa, new_fb)
        # qag's roundoff counters: bisections that left the value unchanged
        # without shrinking the error, and (past 10 subintervals) bisections
        # that grew it
        area12 = new_value[:m] + new_value[m:]
        err12 = new_err[:m] + new_err[m:]
        o = owner[split]
        still = (np.abs(value[split] - area12) <= 1e-5 * np.abs(area12)) & (err12 >= 0.99 * err[split])
        roundoff1 += np.bincount(o, still, minlength=n)
        roundoff2 += np.bincount(o, (count[o] > 10) & (err12 > err[split]), minlength=n)
        keep = open_[owner]
        keep[split] = False
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        fa, fb = np.concatenate((fa[keep], new_fa)), np.concatenate((fb[keep], new_fb))
        owner = np.concatenate((owner[keep], o, o))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))


def poisson_transform(
    omega: Callable[[float], float], z, tol: float = 1e-8
) -> PoissonResult:
    """Poisson integral of an even nonnegative weight at a point of H.

    A center panel around the kernel peak t = x is followed by doubling
    shells on both sides. Shell contributions of an admissible weight decay
    geometrically, so the remaining tail is extrapolated from the ratio of
    the last two shells; integration stops once that bound falls below
    0.25 * tol * |value|. Exhausting _MAX_SHELLS shells, or the weight becoming
    unevaluable, with the bound still above tol * |value| raises.

    Shells go to _integrate in batches: 4, then as many as that ratio says
    reach the stop, plus one (twice the last batch while no ratio is below
    0.95). The first batch shares its call, and so its bisection levels,
    with the center panel. The stopping rule is replayed over each batch,
    and a batch that hits an unevaluable weight is redone shell by shell,
    after the center alone if the first call failed, so every result equals
    that of integrating the center and then one shell per call.

    A weight with a `many(ts)` method (omega_evaluator's has one) is
    evaluated on whole node arrays; a plain scalar callable is mapped over
    them. Every weight takes this quadrature, a power-law evaluator with a
    closed-form `poisson` too, so it is the cross-check of that closed form:
    the two agree within their abs_errors.
    """
    pt = as_half_plane_point(z, 0.0, "poisson_transform")
    if not (tol > 0):
        raise ValidationError("poisson_transform: tol must be > 0")
    x, y = pt.x, pt.y
    y_over_pi = y / math.pi
    many = getattr(omega, "many", None) or (
        lambda ts: np.fromiter(map(omega, ts.tolist()), float, count=ts.size)
    )

    def f(t: np.ndarray) -> np.ndarray:
        d = t - x
        return y_over_pi * many(t) / (d * d + y * y)

    def shells_from(r: float, k: int) -> list[tuple[float, float]]:
        """The next k shells out from radius r, right half then left half."""
        radii = [r * 2.0**j for j in range(k)]
        return [iv for q in radii for iv in ((x + q, x + 2.0 * q), (x - 2.0 * q, x - q))]

    r = max(4.0 * y, 4.0)
    shells, batch = 0, 4
    try:
        (total, err), *pairs = _integrate(f, [(x - r, x + r)] + shells_from(r, batch))
    except EvaluationError:
        ((total, err),) = _integrate(f, [(x - r, x + r)])
        pairs = None
    prev_shell: Optional[float] = None
    tail_bound = math.inf
    rate = 1.0  # the last shell ratio below 0.95
    truncated = single = False
    while shells < _MAX_SHELLS and not truncated:
        k = 1 if single else min(batch, _MAX_SHELLS - shells)
        try:
            pairs = pairs or _integrate(f, shells_from(r, k))
        except EvaluationError:
            truncated, single = k == 1, True  # redo the batch shell by shell
            continue
        for (right, e1), (left, e2) in zip(pairs[::2], pairs[1::2]):
            shell = left + right
            total += shell
            err += e1 + e2
            r *= 2.0
            shells += 1
            if prev_shell is not None and prev_shell > 0 and shell >= 0:
                ratio = shell / prev_shell
                if ratio < 0.95:
                    rate, tail_bound = ratio, shell * ratio / (1.0 - ratio)
            elif shell <= 0:
                tail_bound = 0.0
            prev_shell = shell
            target = 0.25 * tol * max(abs(total), 1e-12)
            if tail_bound <= target:
                return PoissonResult(total, err + tail_bound, r, shells)
        pairs = None
        # no stop yet: enough shells for the tail model to reach the target, plus one
        finite = math.isfinite(tail_bound) and target > 0
        batch = math.ceil(math.log(target / tail_bound) / math.log(rate)) + 1 if finite else 2 * batch
    scale = max(abs(total), 1e-12)
    if not math.isfinite(tail_bound) or tail_bound > tol * scale:
        reason = "weight unevaluable past the truncation radius" if truncated else "shell budget exhausted"
        raise QuadratureError(
            f"poisson_transform: tail bound {tail_bound:.3g} still above "
            f"tolerance {tol:g} * {scale:.3g} at radius {r:.3g} ({reason})"
        )
    return PoissonResult(total, err + tail_bound, r, shells)


# odd powers k = 1, 3, ..., _FAR_ORDER of the far series, most near terms
# (spence calls) a closed-form point takes, and the allowance for the
# rounding of Im Li2 and the sums per unit of the summed |Li2| (scipy's
# complex spence errs by up to about 32 eps of |Li2| in its imaginary part)
_FAR_ORDER = 41
_MAX_NEAR = 2**16
_ROUNDING = 128.0 * np.finfo(float).eps
_special = None


def _power_law_poisson(e: float, scale: float, z) -> PoissonResult:
    """P[omega(scale |t|)](z) for log m_j = e log(j+1), e > 1, in closed form.

    With M_0 = 1 (every prefix starts at +0.0) and M log-convex, omega_M(t)
    = sum over j of (log t - log m_j)_+. The Poisson integral of
    (log |t| - log R)_+ is (1/pi) [Im Li2(z/R) + Im Li2(-conj(z)/R)]
    (substitute u = R/t on each half-line), and every such term is
    positive. So with w = scale z and R_j = (j+1)^e,

        P = (1/pi) sum_{j<J} [Im Li2(w/R_j) + Im Li2(-conj(w)/R_j)]
            + (2/pi) sum_{odd k} Im(w^k)/k^2 zeta(e k, J+1),

    where J counts the j with R_j < 4|w|, Li2(v) = spence(1 - v), and the
    second line is the power series of Li2 summed over j >= J in closed
    form (the Hurwitz zeta; even k cancel between the two terms). Every far
    ratio |w|/R_j is at most 1/4, so the odd powers past _FAR_ORDER shrink by
    at least 1/16 each, and their sum is at most 16/15 of the first of them.
    abs_error is that bound plus the rounding allowance. scipy.special is
    imported on the first call. EvaluationError where the point needs more
    than _MAX_NEAR near terms or the far series leaves the float range.
    """
    global _special
    pt = as_half_plane_point(z, 0.0, "poisson")
    w = scale * complex(pt.x, pt.y)
    reach = 4.0 * abs(w)
    near = reach ** (1.0 / e)  # about J
    if not near <= _MAX_NEAR:
        raise EvaluationError(f"closed-form Poisson point at |w| = {abs(w):g} needs over {_MAX_NEAR} near terms")
    if _special is None:
        from scipy import special as _special
    R = np.arange(1.0, math.ceil(near) + 2.0) ** e  # reaches past the last near term
    R = R[R < reach]
    li2 = _special.spence(1.0 - np.concatenate((w / R, -w.conjugate() / R)))
    k = np.arange(1, _FAR_ORDER + 3, 2)
    zeta = _special.zeta(e * k, R.size + 1.0)
    # an overflow to inf is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = abs(w) ** k * zeta / (k * k)  # each bounds |Im(w^k)| zeta / k^2
        far = np.power(w, k[:-1]).imag * zeta[:-1] / (k[:-1] * k[:-1])
    value = (li2.imag.sum() + 2.0 * far.sum()) / math.pi
    rounding = _ROUNDING * (np.abs(li2).sum() + 2.0 * sizes[:-1].sum())
    abs_error = (2.0 * 16.0 / 15.0 * sizes[-1] + rounding) / math.pi
    if not (math.isfinite(value) and math.isfinite(abs_error) and zeta[-1] >= np.finfo(float).tiny):
        raise EvaluationError(f"closed-form Poisson series leaves the float range at |w| = {abs(w):g}")
    return PoissonResult(float(value), float(abs_error), math.inf, 0)


# ---------------------------------------------------------------------------
# outer-function modulus
# ---------------------------------------------------------------------------


def require_admissible(A: WeightSequence) -> None:
    """The auxiliary sequence must satisfy (wlc) and (nq); anything less
    leaves the Poisson majorant undefined and is rejected."""
    for cond in ("wlc", "nq"):
        verdict = check_condition(A, cond, horizon=256)
        if not verdict.affirmative:
            raise ValidationError(
                f"auxiliary sequence {A.name} must satisfy ({cond}); "
                f"check returned {verdict.status.value}"
            )


def _poisson_point(omega: Callable[[float], float], pt: HalfPlanePoint, tol: float) -> PoissonResult:
    """omega's closed-form Poisson point where it has one that reaches pt,
    else poisson_transform's quadrature to tol."""
    closed = getattr(omega, "poisson", None)
    if closed is not None:
        try:
            return closed(pt)
        except EvaluationError:
            pass
    return poisson_transform(omega, pt, tol=tol)


def _log_modulus(omega: Callable[[float], float], pt: HalfPlanePoint, tol: float) -> float:
    shifted = HalfPlanePoint(pt.x, pt.y + 1.0)
    return -4.0 * _poisson_point(omega, shifted, tol).value


@functools.lru_cache(maxsize=8)
def _g_omegas(A: WeightSequence) -> tuple[Callable[[float], float], Callable[[float], float]]:
    """t -> omega_{hat A}(2 |t|), which G's Poisson integral reads, and
    t -> omega_{hat A}(|t|), for an auxiliary A that satisfies (wlc) and (nq).

    One context per sequence object: the admissibility checks run and the
    evaluators are built on the first call only. A raise is not cached, so a
    non-admissible A raises on every call."""
    require_admissible(A)
    A_hat = derive(A, "hat")
    return omega_evaluator(A_hat, scale=2.0), omega_evaluator(A_hat, scale=1.0)


def g_log_modulus(A: WeightSequence, z, tol: float = 1e-8) -> float:
    """log |G(z)| = -4 P(z + i) on Im z > -1, where P is the Poisson
    integral of t -> omega_{hat A}(2 |t|).

    The auxiliary sequence A must satisfy (wlc) and (nq).
    """
    omega_doubled, _ = _g_omegas(A)
    return _log_modulus(omega_doubled, as_half_plane_point(z, -1.0, "g_log_modulus"), tol)


@dataclass(frozen=True)
class GridCheckReport:
    """Outcome of a pointwise bound check over a grid.

    rows hold (x, y, measured, allowance, slack) per point with
    slack = allowance - measured, so ok means min slack >= -tol.
    """

    name: str
    ok: bool
    sup: float
    bound: float
    tol: float
    rows: tuple[tuple[float, float, float, float, float], ...]
    note: str = ""


def verify_g_decay(
    A: WeightSequence,
    grid: Sequence,
    tol: float = 1e-4,
    quad_tol: float = 1e-8,
) -> GridCheckReport:
    """Check sup over the grid of log |G(z)| + omega_{hat A}(|z|) <= omega_{hat A}(2) + tol.

    log |G| takes the closed form where hat A has a power law e > 1, else
    the quadrature to quad_tol. A failed bound produces a failed report, not
    an exception.
    """
    omega_doubled, omega_plain = _g_omegas(A)
    points = [as_half_plane_point(z, -1.0, "verify_g_decay") for z in grid]
    if not points:
        raise ValidationError("verify_g_decay: grid must be nonempty")
    bound = omega_plain(2.0)
    rows = []
    sup = -math.inf
    for pt in points:
        lg = _log_modulus(omega_doubled, pt, quad_tol)
        measured = lg + omega_plain(abs(pt))
        sup = max(sup, measured)
        rows.append((pt.x, pt.y, measured, bound, bound - measured))
    ok = sup <= bound + tol
    note = "" if ok else "decay bound violated beyond tolerance"
    return GridCheckReport("g_decay", ok, sup, bound, tol, tuple(rows), note)


def verify_poisson_lower_bound(
    omega: Callable[[float], float],
    grid: Sequence,
    tol: float = 1e-6,
    quad_tol: float = 1e-8,
) -> GridCheckReport:
    """Check P_omega(z) >= omega(|z|) / 4 over a grid of upper half-plane
    points: the Poisson kernel keeps at least a quarter of its mass where
    |t| >= |z|, and the weight is even and nondecreasing there. P is omega's
    closed form where it has one (omega_evaluator's `poisson`), else the
    quadrature to quad_tol."""
    points = [as_half_plane_point(z, 0.0, "verify_poisson_lower_bound") for z in grid]
    if not points:
        raise ValidationError("verify_poisson_lower_bound: grid must be nonempty")
    rows = []
    worst = math.inf
    for pt in points:
        value = _poisson_point(omega, pt, quad_tol).value
        floor = omega(abs(pt)) / 4.0
        slack = value - floor
        worst = min(worst, slack)
        rows.append((pt.x, pt.y, value, floor, slack))
    ok = worst >= -tol
    note = "" if ok else "kernel mass lower bound violated beyond tolerance"
    return GridCheckReport("poisson_lower_bound", ok, -worst, 0.0, tol, tuple(rows), note)


# points on each window circle |z - x| = 1/2 at which verify_g_window_bound
# takes the max of log |G|
WINDOW_CIRCLE_POINTS = 12


def verify_g_window_bound(
    A: WeightSequence,
    xs: Sequence[float],
    tol: float = 1e-6,
    quad_tol: float = 1e-8,
) -> GridCheckReport:
    """Check max over |z - x| = 1/2 of log |G(z)| <= omega_{hat A}(2) - omega_{hat A}(|x|/2)
    for real |x| >= 1.

    This window max is the quantity that controls difference quotients of G
    by the Cauchy integral over the circle; |G| is analytic-modulus, so the
    boundary max dominates the disc.
    """
    omega_doubled, omega_plain = _g_omegas(A)
    xs = [float(x) for x in xs]
    if not xs:
        raise ValidationError("verify_g_window_bound: xs must be nonempty")
    if any(abs(x) < 1.0 for x in xs):
        raise ValidationError("verify_g_window_bound: window centers need |x| >= 1")
    log_C = omega_plain(2.0)
    rows = []
    worst = math.inf
    angles = [2.0 * math.pi * k / WINDOW_CIRCLE_POINTS for k in range(WINDOW_CIRCLE_POINTS)]
    for x in xs:
        m = max(
            _log_modulus(
                omega_doubled,
                HalfPlanePoint(x + 0.5 * math.cos(a), 0.5 * math.sin(a)),
                quad_tol,
            )
            for a in angles
        )
        allowance = log_C - omega_plain(abs(x) / 2.0)
        slack = allowance - m
        worst = min(worst, slack)
        rows.append((x, 0.0, m, allowance, slack))
    ok = worst >= -tol
    note = "" if ok else "window bound violated beyond tolerance"
    return GridCheckReport("g_window_bound", ok, -worst, log_C, tol, tuple(rows), note)
