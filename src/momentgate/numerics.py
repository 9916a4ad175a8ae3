"""Shared numeric helpers: harmonic numbers, log-domain sums, window fits.

Everything here is deterministic and pure; the condition checkers and index
estimators build their policies on top of these primitives.
"""
from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = float(np.euler_gamma)

# Exact harmonic numbers are tabulated up to this index; beyond it the
# asymptotic expansion is used (error < 1e-25 relative at the switchover).
HARMONIC_TABLE_LIMIT = 10**6

_harmonic_table: np.ndarray | None = None


def _table() -> np.ndarray:
    global _harmonic_table
    if _harmonic_table is None:
        inv = 1.0 / np.arange(1, HARMONIC_TABLE_LIMIT + 1, dtype=np.float64)
        _harmonic_table = np.concatenate(([0.0], np.cumsum(inv)))
    return _harmonic_table


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1}^n 1/k; exact summation below the table limit,
    asymptotic expansion (with the Euler-Mascheroni constant) above.

    Accepts arbitrarily large Python ints.
    """
    if n < 0:
        raise ValueError("harmonic_number: n must be >= 0")
    if n <= HARMONIC_TABLE_LIMIT:
        return float(_table()[n])
    if n < 10**18:
        fn = float(n)
        return math.log(fn) + EULER_GAMMA + 1.0 / (2.0 * fn) - 1.0 / (12.0 * fn * fn)
    # corrections are below 5e-19 here; math.log handles big ints natively
    return math.log(n) + EULER_GAMMA


def log1mexp(x: float) -> float:
    """log(1 - e^x) for x < 0, stable near both ends."""
    if x >= 0.0:
        raise ValueError("log1mexp requires x < 0")
    if x < -math.log(2.0):
        return math.log1p(-math.exp(x))
    return math.log(-math.expm1(x))


def log_sub_exp(log_a: float, log_b: float) -> float:
    """log(e^a - e^b) for a >= b; -inf when the difference vanishes."""
    if log_b == -math.inf:
        return log_a
    if log_b > log_a:
        raise ValueError("log_sub_exp requires log_a >= log_b")
    if log_b == log_a:
        return -math.inf
    return log_a + log1mexp(log_b - log_a)


def logsumexp_suffix(log_terms: np.ndarray) -> np.ndarray:
    """out[p] = log sum_{q >= p} exp(log_terms[q]), computed right to left."""
    rev = np.logaddexp.accumulate(log_terms[::-1])
    return rev[::-1]


def log_integral_power(log_a: float, log_b: float, e: float) -> float:
    """log of integral_a^b t^(-e) dt for 0 < a < b, in log coordinates.

    Stable for e near 1 (logarithmic branch) and for widely separated
    endpoints.
    """
    if log_b <= log_a:
        raise ValueError("log_integral_power requires log_b > log_a")
    width = log_b - log_a
    s = (1.0 - e) * width
    if abs(s) < 1e-9:
        # integral ~ a^(1-e) * (log b - log a)
        return (1.0 - e) * log_a + math.log(width)
    if s > 0:
        # dominated by the b endpoint: b^(1-e) (1 - (a/b)^(1-e)) / (1-e)
        return (1.0 - e) * log_b + log1mexp(-s) - math.log(1.0 - e)
    # dominated by the a endpoint
    return (1.0 - e) * log_a + log1mexp(s) - math.log(e - 1.0)


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    denom = float(np.dot(dx, dx))
    if denom == 0.0:
        return 0.0, ym
    slope = float(np.dot(dx, y - ym) / denom)
    return slope, ym - slope * xm


def last_quartile_windows(n: int) -> tuple[slice, slice]:
    """Two halves of the last quartile of range(n), each at least 4 wide."""
    if n < 16:
        raise ValueError("need at least 16 points for window fits")
    q3 = (3 * n) // 4
    mid = (q3 + n) // 2
    if mid - q3 < 4:
        mid = q3 + 4
    if n - mid < 4:
        mid = n - 4
    return slice(q3, mid), slice(mid, n)


def two_window_slopes(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slopes of y vs x fitted separately over the two last-quartile windows."""
    w1, w2 = last_quartile_windows(len(x))
    c1, _ = fit_line(x[w1], y[w1])
    c2, _ = fit_line(x[w2], y[w2])
    return c1, c2


def slopes_stable(c1: float, c2: float, rel_tol: float = 0.02) -> bool:
    """Window agreement test used by the tail-exponent fit."""
    scale = max(abs(c1), abs(c2), 1e-3)
    return abs(c1 - c2) <= rel_tol * scale


def running_sup_stabilized(values: np.ndarray, rel_tol: float) -> tuple[bool, float]:
    """Whether the running sup of `values` grew <= rel_tol over the last quartile.

    Returns (stabilized, final_sup).
    """
    if len(values) == 0:
        return False, -math.inf
    run = np.maximum.accumulate(values)
    final = float(run[-1])
    at_q3 = float(run[(3 * len(values)) // 4 - 1]) if len(values) >= 4 else float(run[0])
    scale = max(abs(final), 1e-12)
    return (final - at_q3) <= rel_tol * scale, final


def sustained_growth(values: np.ndarray, factor: float) -> bool:
    """Monotone increase over the last quartile by more than `factor`."""
    n = len(values)
    if n < 8:
        return False
    tail = values[(3 * n) // 4 :]
    if len(tail) < 2:
        return False
    if not np.all(np.diff(tail) >= -1e-12):
        return False
    lo, hi = float(tail[0]), float(tail[-1])
    if lo <= 0.0:
        return hi > 0.0 and hi - lo > 1.0
    return hi / lo > factor


def geometric_indices(n: int, count: int = 32) -> np.ndarray:
    """Up to `count` log-spaced integer indices in [1, n], deduplicated."""
    if n < 1:
        return np.array([], dtype=int)
    raw = np.unique(np.round(np.geomspace(1, n, num=min(count, n))).astype(int))
    return raw


def jsonable(obj):
    """Recursively convert to JSON-encodable values; non-finite floats become
    strings so serialized reports stay loadable."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    return obj


def index_label(p: int) -> str:
    """Compact display form for probe indices that may be astronomically large."""
    if p < 2**40:
        return str(p)
    e = p.bit_length() - 1
    return f"2^{e}" if p == 1 << e else f"~2^{e}"
