"""Shared numeric helpers: harmonic numbers, log-domain sums, window fits.

Everything here is deterministic and pure; the condition checkers and index
estimators build their policies on top of these primitives.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from array import array
from enum import Enum

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


def _harmonic_asymptotic(n, log_n):
    """H_n from its expansion, for a float n or a float array n and log n."""
    return log_n + EULER_GAMMA + 1.0 / (2.0 * n) - 1.0 / (12.0 * n * n)


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
        return _harmonic_asymptotic(fn, math.log(fn))
    # corrections are below 5e-19 here; math.log handles big ints natively
    return math.log(n) + EULER_GAMMA


def harmonic_numbers(lo: int, hi: int) -> np.ndarray:
    """[H_lo, ..., H_(hi-1)], equal to harmonic_number bit for bit. Indices past
    the harmonic table read the log(p+1) table, which grows to hi."""
    cut = min(max(lo, HARMONIC_TABLE_LIMIT + 1), hi)
    out = np.empty(hi - lo)
    out[: cut - lo] = _table()[lo:cut]
    if cut < hi:
        n = np.arange(cut, hi, dtype=float)
        out[cut - lo :] = _harmonic_asymptotic(n, log_p1(cut - 1, hi - 1))
    return out


# log(p+1) for p = 0, 1, ..., grown on demand to the largest index asked for.
# Filled by math.log: np.log differs from it in the last bit on some integers
# (111 of the first 2 M), and the scalar evaluators use math.log.
_log_p1_table = array("d")


def log_p1(lo: int, hi: int, scale: float = 1.0) -> np.ndarray:
    """[scale * math.log(p + 1) for p in range(lo, hi)] as a fresh float array."""
    have = len(_log_p1_table)
    if hi > have:
        _log_p1_table.extend(map(math.log, range(have + 1, hi + 1)))
    # the product is a new array, so no view keeps the table from growing
    return np.frombuffer(_log_p1_table, count=hi)[lo:] * scale


# scipy.special.xlogy, imported on the first log_array call: the import takes
# some 0.2-0.5 s, which analyze and CLI start-up never pay
_xlogy = None


def log_array(x: np.ndarray) -> np.ndarray:
    """[math.log(v) for v in x] bit for bit, for a float array of positive
    entries, in one compiled pass.

    scipy's xlogy(1, x) is 1 * log(x) by the same libm log that math.log
    calls. np.log has its own SIMD loop and differs from both in the last bit
    on some arguments (111 of the first 2 M integers).
    """
    global _xlogy
    if _xlogy is None:
        from scipy.special import xlogy as _xlogy
    return _xlogy(1.0, x)


def exp_or_inf(x: float) -> float:
    """math.exp(x), or +inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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


# log_cumsum folds this many terms per accumulate call, and tests for a
# stagnant tail between calls.
_FOLD_BLOCK = 4096
_LOG_8E = math.log(8.0) + 1.0
_accumulate = np.logaddexp.accumulate


def log_cumsum(log_terms: np.ndarray) -> np.ndarray:
    """np.logaddexp.accumulate(log_terms), bit for bit, without folding a
    stagnant tail.

    The fold runs in blocks of _FOLD_BLOCK terms: each block accumulates in
    place over out[lo-1:hi], seeded with the running sum s = out[lo-1], so
    the operations and their order are numpy's. Before a block, when s is
    finite and nonzero and every remaining term t lies below
    s + log(ulp(|s|)/8) - 1 (suffix max of the block maxima), the rest of
    the output is s. Why that is exact: for t < s numpy's logaddexp(s, t)
    is s + log1p(exp(t - s)), and here the addend is below ulp(|s|)/(8e),
    which rounds back to s, also when |s| is a power of two and the spacing
    toward zero is ulp(|s|)/2. A NaN or +inf term fails the comparison and
    never lets the tail be skipped; s at +-0.0 or +-inf never skips.
    """
    t = np.asarray(log_terms, dtype=float)
    n = t.size
    out = np.empty(n)
    if n <= _FOLD_BLOCK:
        return _accumulate(t, out=out)
    rest = np.maximum.reduceat(t, np.arange(0, n, _FOLD_BLOCK))[::-1]
    rest = np.maximum.accumulate(rest, out=rest)[::-1]  # max over blocks b..end
    _accumulate(t[:_FOLD_BLOCK], out=out[:_FOLD_BLOCK])
    for b in range(1, len(rest)):
        lo, hi = b * _FOLD_BLOCK, (b + 1) * _FOLD_BLOCK
        s = float(out[lo - 1])
        if s != 0.0 and math.isfinite(s) and rest[b] < s + (math.log(math.ulp(abs(s))) - _LOG_8E):
            out[lo:] = s
            break
        out[lo:hi] = t[lo:hi]
        _accumulate(out[lo - 1 : hi], out=out[lo - 1 : hi])
    return out


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


def running_sup_stabilized(values: np.ndarray, rel_tol: float) -> tuple[bool, np.ndarray]:
    """Whether the running sup of `values` grew <= rel_tol over the last quartile.

    Returns (stabilized, running sup); the final sup is its last entry.
    """
    run = np.maximum.accumulate(values)
    if len(run) == 0:
        return False, run
    final = float(run[-1])
    at_q3 = float(run[(3 * len(values)) // 4 - 1]) if len(values) >= 4 else float(run[0])
    scale = max(abs(final), 1e-12)
    return (final - at_q3) <= rel_tol * scale, run


@functools.lru_cache(maxsize=64)
def geometric_indices(n: int, count: int = 32) -> np.ndarray:
    """Up to `count` log-spaced integer indices in [1, n], deduplicated.
    Memoized: the array is shared between callers and read-only."""
    if n < 1:
        raw = np.array([], dtype=int)
    else:
        raw = np.unique(np.round(np.geomspace(1, n, num=min(count, n))).astype(int))
    raw.flags.writeable = False
    return raw


def _json_float(x: float):
    if math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def jsonable(obj):
    """The JSON-encodable form of a result tree; the one place results become
    JSON. A dataclass converts through its class's own to_json() when it has
    one, else field by field in declaration order; an Enum becomes its value,
    a complex number [re, im], and a non-finite float a string, so serialized
    reports stay loadable."""
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        if hasattr(obj, "to_json"):
            return obj.to_json()
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, complex):
        return [_json_float(obj.real), _json_float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return jsonable(obj.item())
    return obj


def index_label(p: int) -> str:
    """Compact display form for probe indices that may be astronomically large."""
    if p < 2**40:
        return str(p)
    e = p.bit_length() - 1
    return f"2^{e}" if p == 1 << e else f"~2^{e}"
