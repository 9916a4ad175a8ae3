"""Associated function, Poisson transform, and outer-function modulus checks.

The associated function of a weight sequence is the log-domain envelope
omega_M(t) = sup_p (p log t - log M_p). Feeding its doubled-argument,
factorial-shifted variant through the upper half-plane Poisson kernel yields
the harmonic function whose exponential is the modulus of an outer function G
with decay e^(-omega) along the shifted half-plane: log |G(z)| = -4 P(z + i).
Only the modulus is ever needed downstream, so the harmonic conjugate is
deliberately not computed.

Quadrature is adaptive around the kernel peak with doubling shells outward,
each shell by G7/K15 panels evaluated on whole node arrays; tails are
truncated once the extrapolated remainder drops below the requested
tolerance, and a remainder that refuses to shrink raises QuadratureError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import numerics
from .conditions import check_condition
from .errors import EvaluationError, QuadratureError, ValidationError
from .sequences import BIG_INDEX_LIMIT, WeightSequence, derive

# brute-force envelope maximization scans every index up to the cap; refuse
# caps that would allocate absurd scan tables
BRUTE_CAP_LIMIT = 2**22


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

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)

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


@dataclass(frozen=True)
class AssocFnQuery:
    """An envelope evaluation request: sup over 0 <= p <= p_cap."""

    seq: WeightSequence
    t: float
    p_cap: int

    def __post_init__(self):
        if isinstance(self.t, bool) or not isinstance(self.t, (int, float)):
            raise ValidationError("AssocFnQuery: field 't' must be a number")
        if not (self.t >= 0) or not math.isfinite(self.t):
            raise ValidationError("AssocFnQuery: field 't' must be finite and >= 0")
        if not isinstance(self.p_cap, int) or isinstance(self.p_cap, bool) or self.p_cap < 2:
            raise ValidationError("AssocFnQuery: field 'p_cap' must be an integer >= 2")


def _crossover(seq: WeightSequence, log_t: float, cap: int, hint: int = 0) -> Optional[int]:
    """Smallest p in [0, cap] with log m_p >= log t, or None if there is none.

    For log-convex sequences the quotients are nondecreasing, so the
    predicate is monotone and the envelope's increments p -> p+1, equal to
    log t - log m_p, change sign exactly once: the crossover is the argmax.
    The search gallops from `hint` to bracket the sign change, then bisects.
    Quotients are probed through the closed-form fast path; the +-2 window
    of _window_max absorbs any rounding disagreement with the prefix.
    """
    lo = hi = hint
    step = 1
    if seq.log_m_fast(hint) >= log_t:
        while hi > 0:  # gallop down; the predicate holds at hi
            lo = max(hi - step, 0)
            if seq.log_m_fast(lo) < log_t:
                break
            hi, step = lo, 2 * step
        else:
            return 0
    else:
        while True:  # gallop up; the predicate fails at lo
            hi = min(lo + step, cap)
            if seq.log_m_fast(hi) >= log_t:
                break
            if hi >= cap:
                return None
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if seq.log_m_fast(mid) >= log_t:
            hi = mid
        else:
            lo = mid
    return hi


def _window_max(seq: WeightSequence, log_t: float, pivot: int, top: int) -> tuple[float, int]:
    """(max, first argmax) of p log t - log M_p over p >= 0 in [pivot-2, min(pivot+2, top)]."""
    best_v, best_p = -math.inf, 0
    for p in range(max(0, pivot - 2), min(top, pivot + 2) + 1):
        v = p * log_t - seq.log_M_extended(p)
        if v > best_v:
            best_v, best_p = v, p
    return best_v, best_p


def associated_function_argmax(seq: WeightSequence, t: float, p_cap: int = 100_000) -> tuple[float, int]:
    """(omega_M(t), argmax p) with the sup restricted to 0 <= p <= p_cap.

    Log-convex sequences are handled by a search for the quotient crossover
    (with a small safety window); everything else falls back to a
    brute-force scan. An argmax pinned at p_cap means the cap truncated the
    sup and is an error.
    """
    query = AssocFnQuery(seq, float(t), int(p_cap))
    if query.t == 0.0:
        return 0.0, 0
    log_t = math.log(query.t)
    if seq.certifies("lc"):
        pivot = _crossover(seq, log_t, query.p_cap)
        pivot = query.p_cap if pivot is None else pivot
        best_v, best_p = _window_max(seq, log_t, pivot, query.p_cap)
    else:
        if query.p_cap > BRUTE_CAP_LIMIT:
            raise ValidationError(
                f"associated_function: p_cap {query.p_cap} exceeds the brute-force "
                f"limit {BRUTE_CAP_LIMIT} for a sequence without certified log-convexity"
            )
        logM = seq.log_M_array(query.p_cap)
        f = np.arange(query.p_cap + 1, dtype=float) * log_t - logM
        best_p = int(np.argmax(f))
        best_v = float(f[best_p])
    if best_p >= query.p_cap:
        raise ValidationError(
            f"associated_function: argmax at p_cap = {query.p_cap} for t = {query.t:g}; "
            "p_cap too small"
        )
    # + 0.0 turns a -0.0 maximum (p = 0 term below t = 1) into +0.0
    return max(best_v, 0.0) + 0.0, best_p


def associated_function(seq: WeightSequence, t: float, p_cap: int = 100_000) -> float:
    """omega_M(t) = max over 0 <= p <= p_cap of (p log t - log M_p), with
    omega_M(0) = 0."""
    return associated_function_argmax(seq, t, p_cap)[0]


def _map_scalar(fn: Callable[[float], float], ts: np.ndarray) -> np.ndarray:
    """[fn(t) for t in ts] as a float array."""
    return np.fromiter(map(fn, ts.tolist()), float, count=ts.size)


def omega_evaluator(seq: WeightSequence, scale: float = 1.0) -> Callable[[float], float]:
    """Memoized even evaluator t -> omega_seq(scale * |t|).

    Non-log-convex sequences go through associated_function with a search cap
    that grows on demand. Log-convex sequences gallop to the quotient
    crossover from the previous call's argmax; quadrature nodes
    arrive clustered, so the crossover rarely moves far between calls. The
    reachable index range ends where closed forms do: sequences without a
    closed-form log M stop at the cumulative evaluation limit, making the
    Poisson tail handler treat that point as the truncation boundary.

    The returned callable's `many(ts)` evaluates a float array and equals
    the scalar calls bit for bit. For log-convex sequences, nodes whose +-2
    window lies inside the materialized prefix find their crossover by
    np.searchsorted on the prefix quotients; every other node takes the
    scalar path, which also raises EvaluationError past the reachable range.
    """
    if not (scale > 0) or not math.isfinite(scale):
        raise ValidationError("omega_evaluator: scale must be a finite number > 0")
    cache: dict[float, float] = {}
    cap_limit = 2**60 if seq._big_M_fn is not None else BIG_INDEX_LIMIT - 1
    convex = seq.certifies("lc")
    hint = 1

    def envelope(u: float) -> Optional[float]:
        """omega_seq(u), or None when the argmax lies beyond cap_limit."""
        nonlocal hint
        if convex:
            log_u = math.log(u)
            pivot = _crossover(seq, log_u, cap_limit, hint)
            if pivot is None:
                return None
            hint = pivot
            # 0.0 goes first: the p = 0 term is -0.0 for u < 1, and max keeps
            # its first argument on ties
            return max(0.0, _window_max(seq, log_u, pivot, pivot + 2)[0])
        cap = 4096
        while True:
            try:
                return associated_function(seq, u, cap)
            except ValidationError:
                if cap >= cap_limit:
                    return None
                cap = min(cap * 4, cap_limit)

    def omega(t: float) -> float:
        nonlocal cache
        u = scale * abs(t)
        hit = cache.get(u)
        if hit is not None:
            return hit
        if u == 0.0:
            return 0.0
        value = envelope(u)
        if value is None:
            raise EvaluationError(f"associated function argmax beyond index {cap_limit} at t = {u:g}")
        if len(cache) > 400_000:
            cache = {}
        cache[u] = value
        return value

    # (log M_0..log M_n, log m_0..log m_(n-1)) of the prefix as last seen;
    # the prefix only ever grows, so its length identifies it
    tables = (np.zeros(1), np.zeros(0))

    def many(ts: np.ndarray) -> np.ndarray:
        """omega at every entry of the 1-D array ts."""
        nonlocal tables
        ts = np.asarray(ts, dtype=float)
        if not convex:
            return _map_scalar(omega, ts)
        if len(tables[0]) != len(seq._prefix):
            log_M = seq.log_M_array(len(seq._prefix) - 1)
            tables = (log_M, np.diff(log_M))
        log_M, log_m = tables
        u = scale * np.abs(ts)
        out = np.zeros(ts.size)  # +0.0 at u == 0
        live = np.flatnonzero(u)
        # math.log, not np.log: the two disagree in the last bit on some
        # arguments, and the scalar path uses math.log
        log_u = np.fromiter(map(math.log, u[live].tolist()), float, count=live.size)
        pivot = np.searchsorted(log_m, log_u)  # first p with log m_p >= log u
        inside = pivot + 2 < len(log_M)
        p = pivot[inside, None] + np.arange(-2, 3)
        terms = p * log_u[inside, None] - log_M[np.maximum(p, 0)]
        terms[p < 0] = -math.inf
        # + 0.0 turns a -0.0 maximum (p = 0 term below u = 1) into +0.0
        out[live[inside]] = np.maximum(terms.max(axis=1), 0.0) + 0.0
        for i in live[~inside].tolist():
            out[i] = omega(float(ts[i]))
        return out

    omega.many = many
    return omega


# ---------------------------------------------------------------------------
# Poisson transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoissonResult:
    """Value of (y/pi) * integral of omega(t) / ((t-x)^2 + y^2) with an
    absolute error estimate (quadrature error plus truncated-tail bound)."""

    value: float
    abs_error: float
    radius: float
    shells: int

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "value": self.value,
                "abs_error": self.abs_error,
                "radius": self.radius,
                "shells": self.shells,
            }
        )


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
    how far f at the end misses the node interpolant there.
    """
    h = 0.5 * (b - a)
    width = np.abs(h)
    value = fv @ _KRONROD * h
    err = np.maximum(np.abs(value - fv @ _GAUSS * h), _EPS50 * width * (np.abs(fv) @ _KRONROD))
    ends = fv @ _ENDS
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
    while True:
        total = np.bincount(owner, value, minlength=n)
        err_sum = np.bincount(owner, err, minlength=n)
        budget = np.maximum(_EPSABS, _EPSREL * np.abs(total))
        count = np.bincount(owner, minlength=n)
        open_ = (err_sum > budget) & (count < _LIMIT) & (roundoff1 < 6) & (roundoff2 < 20)
        if not open_.any():
            return [(float(v), float(e)) for v, e in zip(total, err_sum)]
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
        keep = np.ones(a.size, dtype=bool)
        keep[split] = False
        a, b = np.concatenate((a[keep], new_a)), np.concatenate((b[keep], new_b))
        fa, fb = np.concatenate((fa[keep], new_fa)), np.concatenate((fb[keep], new_fb))
        owner = np.concatenate((owner[keep], o, o))
        value = np.concatenate((value[keep], new_value))
        err = np.concatenate((err[keep], new_err))


def poisson_transform(
    omega: Callable[[float], float], z, tol: float = 1e-8, max_shells: int = 60
) -> PoissonResult:
    """Poisson integral of an even nonnegative weight at a point of H.

    A center panel around the kernel peak t = x is followed by doubling
    shells on both sides. Shell contributions of an admissible weight decay
    geometrically, so the remaining tail is extrapolated from the ratio of
    the last two shells; integration stops once that bound falls below
    0.25 * tol * |value|. Exhausting max_shells, or the weight becoming
    unevaluable, with the bound still above tol * |value| raises.

    A weight with a `many(ts)` method (omega_evaluator's has one) is
    evaluated on whole node arrays; a plain scalar callable is mapped over
    them.
    """
    pt = as_half_plane_point(z, 0.0, "poisson_transform")
    if not (tol > 0):
        raise ValidationError("poisson_transform: tol must be > 0")
    x, y = pt.x, pt.y
    y_over_pi = y / math.pi
    many = getattr(omega, "many", None)
    if many is None:
        def many(ts: np.ndarray) -> np.ndarray:
            return _map_scalar(omega, ts)

    def f(t: np.ndarray) -> np.ndarray:
        d = t - x
        return y_over_pi * many(t) / (d * d + y * y)

    r = max(4.0 * y, 4.0)
    ((total, err),) = _integrate(f, [(x - r, x + r)])
    prev_shell: Optional[float] = None
    tail_bound = math.inf
    shells = 0
    truncated = False
    while shells < max_shells:
        try:
            (right, e1), (left, e2) = _integrate(f, [(x + r, x + 2.0 * r), (x - 2.0 * r, x - r)])
        except EvaluationError:
            truncated = True
            break
        shell = left + right
        total += shell
        err += e1 + e2
        r *= 2.0
        shells += 1
        if prev_shell is not None and prev_shell > 0 and shell >= 0:
            ratio = shell / prev_shell
            if ratio < 0.95:
                tail_bound = shell * ratio / (1.0 - ratio)
        elif shell <= 0:
            tail_bound = 0.0
        prev_shell = shell
        scale = max(abs(total), 1e-12)
        if tail_bound <= 0.25 * tol * scale:
            return PoissonResult(total, err + tail_bound, r, shells)
    scale = max(abs(total), 1e-12)
    if not math.isfinite(tail_bound) or tail_bound > tol * scale:
        reason = "weight unevaluable past the truncation radius" if truncated else "shell budget exhausted"
        raise QuadratureError(
            f"poisson_transform: tail bound {tail_bound:.3g} still above "
            f"tolerance {tol:g} * {scale:.3g} at radius {r:.3g} ({reason})"
        )
    return PoissonResult(total, err + tail_bound, r, shells)


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


def _log_modulus(omega: Callable[[float], float], pt: HalfPlanePoint, tol: float) -> float:
    shifted = HalfPlanePoint(pt.x, pt.y + 1.0)
    return -4.0 * poisson_transform(omega, shifted, tol=tol).value


def g_log_modulus(A: WeightSequence, z, tol: float = 1e-8) -> float:
    """log |G(z)| = -4 P(z + i) on Im z > -1, where P is the Poisson
    integral of t -> omega_{hat A}(2 |t|).

    The auxiliary sequence A must satisfy (wlc) and (nq).
    """
    require_admissible(A)
    pt = as_half_plane_point(z, -1.0, "g_log_modulus")
    omega = omega_evaluator(derive(A, "hat"), scale=2.0)
    return _log_modulus(omega, pt, tol)


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

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "name": self.name,
                "ok": self.ok,
                "sup": self.sup,
                "bound": self.bound,
                "tol": self.tol,
                "note": self.note,
                "rows": [list(r) for r in self.rows],
            }
        )


def verify_g_decay(
    A: WeightSequence,
    grid: Sequence,
    tol: float = 1e-4,
    quad_tol: float = 1e-8,
) -> GridCheckReport:
    """Check sup over the grid of log |G(z)| + omega_{hat A}(|z|) <= omega_{hat A}(2) + tol.

    A failed bound produces a failed report, not an exception.
    """
    require_admissible(A)
    points = [as_half_plane_point(z, -1.0, "verify_g_decay") for z in grid]
    if not points:
        raise ValidationError("verify_g_decay: grid must be nonempty")
    A_hat = derive(A, "hat")
    omega_doubled = omega_evaluator(A_hat, scale=2.0)
    omega_plain = omega_evaluator(A_hat, scale=1.0)
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
    |t| >= |z|, and the weight is even and nondecreasing there."""
    points = [as_half_plane_point(z, 0.0, "verify_poisson_lower_bound") for z in grid]
    if not points:
        raise ValidationError("verify_poisson_lower_bound: grid must be nonempty")
    rows = []
    worst = math.inf
    for pt in points:
        value = poisson_transform(omega, pt, tol=quad_tol).value
        floor = omega(abs(pt)) / 4.0
        slack = value - floor
        worst = min(worst, slack)
        rows.append((pt.x, pt.y, value, floor, slack))
    ok = worst >= -tol
    note = "" if ok else "kernel mass lower bound violated beyond tolerance"
    return GridCheckReport("poisson_lower_bound", ok, -worst, 0.0, tol, tuple(rows), note)


def verify_g_window_bound(
    A: WeightSequence,
    xs: Sequence[float],
    tol: float = 1e-6,
    quad_tol: float = 1e-8,
    n_circle: int = 24,
) -> GridCheckReport:
    """Check max over |z - x| = 1/2 of log |G(z)| <= omega_{hat A}(2) - omega_{hat A}(|x|/2)
    for real |x| >= 1.

    This window max is the quantity that controls difference quotients of G
    by the Cauchy integral over the circle; |G| is analytic-modulus, so the
    boundary max dominates the disc.
    """
    require_admissible(A)
    xs = [float(x) for x in xs]
    if not xs:
        raise ValidationError("verify_g_window_bound: xs must be nonempty")
    if any(abs(x) < 1.0 for x in xs):
        raise ValidationError("verify_g_window_bound: window centers need |x| >= 1")
    A_hat = derive(A, "hat")
    omega_doubled = omega_evaluator(A_hat, scale=2.0)
    omega_plain = omega_evaluator(A_hat, scale=1.0)
    log_C = omega_plain(2.0)
    rows = []
    worst = math.inf
    for x in xs:
        angles = [2.0 * math.pi * k / n_circle for k in range(n_circle)]
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
