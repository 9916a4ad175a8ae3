"""Growth-condition checks for weight sequences.

Six conditions are checked: (lc) log-convexity, (wlc) log-convexity of the
factorial-shifted sequence, (dc) derivation closedness m_p <= C0*H^(p+1),
(mg) moderate growth M_{p+q} <= C0*H^(p+q)*M_p*M_q, (nq) convergence of
sum 1/((p+1)*m_p), and (snq) sup_p m_p * sum_{q>=p} 1/((q+1)*m_q) < infinity.
A parametric strengthening of (snq) is exposed as check_gamma_beta: the
condition sum_{q>=p} m_q^(-1/beta) <= C*(p+1)*m_p^(-1/beta).

Asymptotic conditions are only semidecidable from finitely many terms, so
verdicts are explicit about their horizon and admit an inconclusive outcome.
exact_holds is claimed only when constructor metadata supplies an analytic
certificate; the numeric check still runs and a contradiction between the two
raises InternalInvariantError.

Series tails are classified by fitting the composite exponent of the summand
denominator against log p over the last quartile of the horizon (two
half-windows must agree). Sequences derived from the delta-block family are
classified blockwise instead: per-block sums are evaluated in closed form at
doubly exponential indices where termwise summation is impossible. Each check
builds those parts (the direct terms below the cap and one log-sum per later
segment) once, and both its series report and its suffix sums read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import numerics
from .errors import InternalInvariantError, ValidationError
from .sequences import BlockProfile, WeightSequence

CONDITIONS = ("lc", "wlc", "dc", "mg", "nq", "snq")

# direct termwise summation below this index; closed-form block integrals above
BLOCK_DIRECT_CAP = 4096


class Status(Enum):
    EXACT_HOLDS = "exact_holds"
    HOLDS_AT_HORIZON = "holds_at_horizon"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    condition: str
    status: Status
    horizon: int
    constants: dict = field(default_factory=dict)
    witness: Optional[dict] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def affirmative(self) -> bool:
        return self.status in (Status.EXACT_HOLDS, Status.HOLDS_AT_HORIZON)

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "status": self.status,
            "horizon": self.horizon,
            "constants": self.constants,
            "diagnostics": self.diagnostics,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return numerics.jsonable(out)


# Thresholds shared by every checker. The running sup at the start of the
# last quartile must be within STAB_RTOL (relative) of the final sup to count
# as stabilized; a monotone last-quartile increase by more than GROWTH_FACTOR
# counts as sustained growth (failure).
STAB_RTOL = 0.01
GROWTH_FACTOR = 2.0
MG_RISE_RTOL = 0.10
SERIES_WINDOW_RTOL = 0.02
SERIES_MARGIN = 1e-9
POINTWISE_TOL = 1e-9
# windows that disagree but both sit above this multiple of the divergence
# threshold still count as convergent (super-power-law decay)
CLEAR_MARGIN = 1.5


# ---------------------------------------------------------------------------
# series classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of classifying sum_p (p+1)^(-alpha) * m_p^(-1/beta).

    kind: convergent | divergent | inconclusive.
    exponent: fitted composite slope of theta*alpha*log(p+1) + log m_p against
    log(p+1); divergence threshold is exponent <= theta.
    log_total: log of partial sum plus tail estimate (convergent case only).
    """

    kind: str
    theta: float
    exponent: float
    windows: tuple[float, float]
    log_partial: float
    log_total: float
    trace: tuple[tuple[int, float], ...]
    method: str = "tail_fit"
    block_sums: tuple[float, ...] = ()

    @property
    def divergent(self) -> bool:
        return self.kind == "divergent"

    def to_json(self) -> dict:
        return numerics.jsonable(
            {
                "kind": self.kind,
                "theta": self.theta,
                "exponent": self.exponent,
                "windows": self.windows,
                "log_partial": self.log_partial,
                "log_total": self.log_total,
                "method": self.method,
                "partial_sum_trace": self.trace,
                "block_sums": self.block_sums,
            }
        )


def _tail_fit(x: np.ndarray, D: np.ndarray) -> Optional[tuple[float, float, float, float]]:
    """(c1, c2, c_fit, b_fit): the slopes of D against x = log(p+1) on the two
    halves of the last quartile, and the line fitted over the whole quartile.
    None below 16 terms."""
    n = len(D)
    if n < 16:
        return None
    c1, c2 = numerics.two_window_slopes(x, D)
    q = slice((3 * n) // 4, n)
    c_fit, b_fit = numerics.fit_line(x[q], D[q])
    return c1, c2, c_fit, b_fit


def tail_decision(fit, theta: float, n: int) -> tuple[str, float, Optional[float]]:
    """(kind, exponent, log of the fitted tail beyond n or None) of
    sum_{p<n} exp(-D_p/theta). Stable fits compare c against theta; unstable
    fits still decide the clear cases (both slopes far above or below it)."""
    if fit is None:
        return "inconclusive", math.nan, None
    c1, c2, c_fit, b_fit = fit
    if numerics.slopes_stable(c1, c2, SERIES_WINDOW_RTOL):
        c = 0.5 * (c1 + c2)
        kind = "divergent" if c / theta <= 1.0 + SERIES_MARGIN else "convergent"
    elif min(c1, c2) / theta >= CLEAR_MARGIN:
        c, kind = min(c1, c2), "convergent"
    elif max(c1, c2) / theta <= 1.0 + SERIES_MARGIN:
        c, kind = max(c1, c2), "divergent"
    else:
        return "inconclusive", math.nan, None
    e_t = c_fit / theta
    if e_t <= 1.0 + SERIES_MARGIN:
        e_t = c / theta
    if kind == "divergent" or e_t <= 1.0 + SERIES_MARGIN:
        return kind, c, None
    return kind, c, -b_fit / theta - (e_t - 1.0) * math.log(n + 1) - math.log(e_t - 1.0)


def classify_series(
    log_denominators: np.ndarray,
    theta: float,
    fit: Optional[tuple] = None,
    log_terms: Optional[np.ndarray] = None,
) -> SeriesReport:
    """Classify sum_p exp(-D_p/theta) from the first len(D) terms.

    The composite slope c of D against log(p+1) is fitted on the two halves
    of the last quartile; pass `fit` when the caller has it from tail_series,
    and `log_terms` when it has -D/theta. A caller that needs only the kind
    or the exponent takes them from tail_decision, without the partial sums.
    """
    D = np.asarray(log_denominators, dtype=float)
    n = len(D)
    if fit is None:
        fit = _tail_fit(np.log(np.arange(1, n + 1, dtype=float)), D)
    kind, c, log_tail = tail_decision(fit, theta, n)
    windows = (math.nan, math.nan) if fit is None else fit[:2]
    lp = numerics.log_cumsum(-D / theta if log_terms is None else log_terms)
    trace = tuple((int(i), float(lp[i - 1])) for i in numerics.geometric_indices(n, 24))
    log_total = math.nan
    if kind == "convergent":
        log_total = float(lp[-1] if log_tail is None else np.logaddexp(lp[-1], log_tail))
    return SeriesReport(kind, theta, c, windows, float(lp[-1]), log_total, trace)


# ---------------------------------------------------------------------------
# blockwise series machinery
# ---------------------------------------------------------------------------


def _segment_log_sum(
    seq: WeightSequence,
    profile: BlockProfile,
    left: int,
    right: int,
    delta: int,
    alpha: float,
    beta: float,
) -> float:
    """log sum_{n=left}^{right} (n+1)^(-alpha) m_n^(-1/beta) within one block.

    Inside a delta-block the quotients follow log m_n ~ log m_left +
    slope*(log n - log left), so the sum collapses to a power integral with an
    exact left-endpoint prefactor. Endpoints may be astronomically large.
    """
    lm = seq.log_m(left)
    if left >= right:
        # degenerate one-term segment: keep the exact term
        return -alpha * math.log(left + 1) - lm / beta
    sigma = profile.slope(delta)
    e = alpha + sigma / beta
    ln_l = math.log(left)
    ln_r = math.log(right)
    return (-lm / beta + (sigma / beta) * ln_l) + numerics.log_integral_power(
        ln_l, ln_r, e
    )


def _block_parts(seq: WeightSequence, profile: BlockProfile, alpha: float, beta: float):
    """(direct, segments) for sum (p+1)^(-alpha) m_p^(-1/beta): the direct
    log-terms below BLOCK_DIRECT_CAP, and (left, right, delta, log-sum) for
    each segment reaching the cap, summed from left = max(start, cap)."""
    cap = BLOCK_DIRECT_CAP
    logm = seq.log_m_array(cap - 1)
    p = np.arange(cap, dtype=float)
    direct = -alpha * np.log(p + 1.0) - logm[: cap] / beta
    segments = []
    for a, b, delta in profile.segments():
        if b >= cap:
            left = max(a, cap)
            segments.append(
                (left, b, delta, _segment_log_sum(seq, profile, left, b, delta, alpha, beta))
            )
    return direct, segments


def _block_report(parts, beta: float) -> SeriesReport:
    """Blockwise classification of a series from its _block_parts.

    Per-segment sums alternate between the two block slopes; growth across
    same-type segments at the far end of the table decides divergence. The
    doubly exponential segment lengths make the growth signal sharp.
    """
    direct, segments = parts
    log_partial = float(np.logaddexp.reduce(direct))
    LS = [s for (*_, s) in segments]
    divergent = any(LS[i + 2] > LS[i] for i in range(max(0, len(LS) - 6), len(LS) - 2))
    log_total = math.nan if divergent else float(np.logaddexp.reduce(np.array([log_partial] + LS)))
    return SeriesReport(
        "divergent" if divergent else "convergent", beta, math.nan, (math.nan, math.nan),
        log_partial, log_total, ((BLOCK_DIRECT_CAP - 1, log_partial),),
        method="block", block_sums=tuple(LS),
    )


def classify_power_series(
    seq: WeightSequence,
    horizon: int,
    alpha: float,
    beta: float,
) -> SeriesReport:
    """Classify sum_p (p+1)^(-alpha) m_p^(-1/beta), choosing the blockwise
    route for delta-block families and the tail-fit route otherwise."""
    profile = seq.block_profile()
    if profile is not None:
        return _block_report(_block_parts(seq, profile, alpha, beta), beta)
    _, _, D, fit = tail_series(seq, horizon, alpha, beta)
    return classify_series(D, beta, fit)


@dataclass
class _WorkingSet:
    """The horizon-sized arrays one analysis of a sequence reads, held
    read-only on the sequence until a read at another horizon replaces them:
    log m from the start, then, as tail_series first asks for them,
    x = log(p+1) and per product beta*alpha the log denominators
    D = beta*alpha*x + log m with their tail fit (delta-block families read
    log m only)."""

    horizon: int
    logm: np.ndarray
    x: Optional[np.ndarray] = None
    # beta*alpha -> (D, tail fit): 0.0, whose D is log m, and the last other
    series: dict = field(default_factory=dict)


def _working_set(seq: WeightSequence, horizon: int) -> _WorkingSet:
    ws = seq._working_set
    if ws is None or ws.horizon != horizon:
        logm = seq.log_m_array(horizon)
        logm.flags.writeable = False
        ws = seq._working_set = _WorkingSet(horizon, logm)
    return ws


def tail_series(seq: WeightSequence, horizon: int, alpha: float, beta: float):
    """(x, log m, D, tail fit of D) for sum_p (p+1)^(-alpha) m_p^(-1/beta), with
    x = log(p+1) and D = beta*alpha*x + log m for p <= horizon, from the
    sequence's working set."""
    ws = _working_set(seq, horizon)
    if ws.x is None:
        ws.x = np.log(np.arange(1, horizon + 2, dtype=float))
        ws.x.flags.writeable = False
    ba = beta * alpha
    if ba not in ws.series:
        if ba == 0.0:
            # beta*0*x + log m is log m bit for bit: log_m_array never holds -0.0
            D = ws.logm
        else:
            # one scaled D at a time, so a sweep over alpha*beta holds no more
            ws.series = {k: v for k, v in ws.series.items() if k == 0.0}
            D = ba * ws.x + ws.logm
            D.flags.writeable = False
        ws.series[ba] = (D, _tail_fit(ws.x, D))
    return (ws.x, ws.logm) + ws.series[ba]


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------


def _check_convexity(seq: WeightSequence, horizon: int, shifted: bool):
    d = np.diff(_working_set(seq, horizon).logm)
    if shifted:
        d = d + np.log1p(1.0 / np.arange(1, horizon + 1, dtype=float))
    i = int(np.argmin(d))
    diagnostics = {"min_second_difference": float(d[i]), "argmin": i + 1}
    if d[i] < -POINTWISE_TOL:
        witness = {"p": i + 1, "second_difference": float(d[i])}
        return Status.FAILS, {}, witness, diagnostics
    return Status.HOLDS_AT_HORIZON, {}, None, diagnostics


def _check_dc(seq: WeightSequence, horizon: int):
    r = _working_set(seq, horizon).logm / np.arange(1, horizon + 2, dtype=float)
    trace = numerics.geometric_indices(len(r), 16)
    stable, sup, at = numerics.running_sup_stabilized(r, STAB_RTOL, trace - 1)
    constants = {"C0": 1.0, "H": numerics.exp_or_inf(max(sup, 0.0))}
    diagnostics = {"sup_trace": [(int(i), float(v)) for i, v in zip(trace, at)]}
    if stable:
        return Status.HOLDS_AT_HORIZON, constants, None, diagnostics
    return Status.INCONCLUSIVE, constants, None, diagnostics


def _split_excess(logM: np.ndarray) -> np.ndarray:
    """d_n = (log M_n - log M_(n//2)) - log M_((n+1)//2) for n = 2..len-1,
    from strided slices in that order: (log M_2k - log M_k) - log M_k at even
    n, (log M_(2k+1) - log M_k) - log M_(k+1) at odd n."""
    d = np.empty(len(logM) - 2)
    even, odd = d[0::2], d[1::2]
    np.subtract(logM[2::2], logM[1 : len(even) + 1], out=even)
    even -= logM[1 : len(even) + 1]
    np.subtract(logM[3::2], logM[1 : len(odd) + 1], out=odd)
    odd -= logM[2 : len(odd) + 2]
    return d


def _mg_constants(log_H: float) -> dict:
    """(mg)'s constants C0 = 1 and H = e^log_H, reported as inf from
    log_H = 700 on."""
    return {"C0": 1.0, "H": math.exp(log_H) if log_H < 700.0 else math.inf, "log_H": log_H}


def _check_mg(seq: WeightSequence, horizon: int):
    d = _split_excess(seq.log_M_array(horizon))
    n = np.arange(2, horizon + 1)
    r = d / n
    stable, sup, _ = numerics.running_sup_stabilized(r, STAB_RTOL)
    diagnostics = {
        "split_trace": [
            (int(n[i]), float(r[i])) for i in numerics.geometric_indices(len(r), 16) - 1
        ],
    }
    if stable:
        return Status.HOLDS_AT_HORIZON, _mg_constants(max(sup, 0.0)), None, diagnostics
    # sustained relative rise of the per-index excess over the last quartile
    tail = r[(3 * len(r)) // 4 :]
    monotone = bool(np.all(np.diff(tail) >= -1e-12))
    rise = float(tail[-1] - tail[0])
    scale = max(abs(float(tail[0])), 1e-9)
    if monotone and rise > MG_RISE_RTOL * scale:
        half = r[: len(r) // 2]
        log_H = max(float(np.max(half)), 0.0)
        excess = d - n * log_H
        j = int(np.argmax(excess))
        if excess[j] > 0:
            witness = {
                "p": int(n[j] // 2),
                "q": int((n[j] + 1) // 2),
                "excess": float(excess[j]),
            }
            return Status.FAILS, _mg_constants(log_H), witness, diagnostics
    return Status.INCONCLUSIVE, {}, None, diagnostics


# ---------------------------------------------------------------------------
# series-based checks
# ---------------------------------------------------------------------------


def _exp(x: float) -> float:
    """exp(x) by numpy, +inf past the float range without an overflow warning."""
    with np.errstate(over="ignore"):
        return float(np.exp(x))


def _check_nq(seq: WeightSequence, horizon: int):
    report = classify_power_series(seq, horizon, 1.0, 1.0)
    diagnostics = {"series": report}
    if report.kind == "convergent":
        return Status.HOLDS_AT_HORIZON, {"sum": _exp(report.log_total)}, None, diagnostics
    if report.kind == "divergent":
        return Status.FAILS, {}, None, diagnostics
    return Status.INCONCLUSIVE, {}, None, diagnostics


def _sup_verdict(values, diagnostics: dict, window: Optional[int] = None):
    """Trichotomy on the running sup of the log-domain trace `values`.

    The sup gap between the comparison point and the end decides: within
    log(1+STAB_RTOL) it has stabilized (holds, C = the sup; the sup is
    monotone by construction, so this is the literal last-quartile
    criterion); beyond log(GROWTH_FACTOR) it exhibits sustained growth
    (fails); in between, inconclusive.

    The comparison point is the start of the last quartile, or `window` steps
    from the end when given. Block-boundary probe lists pass window=2 so the
    comparison spans the last doubly exponential stage (one slope-3 and one
    slope-2 boundary) rather than a quartile of the (mostly small-index)
    list; sup growth in failing cases is at least log 3 per stage, while
    stabilizing corrections die off doubly exponentially.
    """
    n = len(values)
    if window is None:
        i0 = max((3 * n) // 4 - 1, 0)
    else:
        i0 = max(n - 1 - window, 0)
    at_i0, final = map(float, numerics.running_sup_at(values, (i0, n - 1)))
    gap = final - at_i0
    sup = _exp(final)
    if gap <= math.log1p(STAB_RTOL):
        return Status.HOLDS_AT_HORIZON, {"C": sup}, None, diagnostics
    if gap > math.log(GROWTH_FACTOR):
        return Status.FAILS, {"sup_so_far": sup}, None, diagnostics
    return Status.INCONCLUSIVE, {}, None, diagnostics


def _block_log_suffix(
    seq: WeightSequence, profile: BlockProfile, parts, alpha: float, beta: float
) -> Callable[[int], float]:
    """p -> log sum_{q>=p} (q+1)^(-alpha) m_q^(-1/beta) for a delta-block
    family, from the check's _block_parts: exact direct terms below the cap,
    closed-form segment integrals above it. Past the cap, only p's own
    segment is summed again, from p; the later ones keep their sums. The
    segments run to k_9, past every probe."""
    cap = BLOCK_DIRECT_CAP
    direct, segments = parts
    suffix = numerics.logsumexp_suffix(direct)
    log_beyond = float(np.logaddexp.reduce(np.array([s for (*_, s) in segments])))

    def log_T(p: int) -> float:
        if p < cap:
            return float(np.logaddexp(suffix[p], log_beyond))
        sums = [
            s if left >= p else _segment_log_sum(seq, profile, p, b, delta, alpha, beta)
            for left, b, delta, s in segments
            if b >= p
        ]
        return float(np.logaddexp.reduce(np.array(sums)))

    return log_T


def _sup_series(seq: WeightSequence, horizon: int, alpha: float, beta: float):
    """Shared engine for (snq) (alpha = beta = 1) and the beta-parametric
    condition (alpha = 0): the sup over p of

        R(p) = m_p^(1/beta) * (p+1)^(alpha-1) * sum_{q>=p} (q+1)^(-alpha) m_q^(-1/beta)

    Delta-block families probe R at dyadic indices plus the block boundaries,
    with suffix sums from _block_log_suffix over the same _block_parts as the
    series report, built once per check. Otherwise the suffix sums take
    the computed terms up to the horizon plus a fitted integral tail, and
    the sup runs over p <= horizon/2. This is the exact engine: its
    diagnostics and constants go into reports bit for bit. gamma_beta_status
    decides most probes without it (_sup_status) and falls back to it.
    """
    profile = seq.block_profile()
    if profile is not None:
        parts = _block_parts(seq, profile, alpha, beta)
        series = _block_report(parts, beta)
        if series.divergent:
            return Status.FAILS, {}, None, {"series": series}
        log_T = _block_log_suffix(seq, profile, parts, alpha, beta)
        probe_list: list[int] = [0, 1, 2]
        v = 4
        while v < BLOCK_DIRECT_CAP:
            probe_list.append(v)
            v *= 4
        probe_list += [b for b in profile.boundaries() if b >= BLOCK_DIRECT_CAP]
        lR = [
            seq.log_m(p) / beta - (1.0 - alpha) * math.log(p + 1) + log_T(p)
            for p in probe_list
        ]
        diagnostics = {
            "sup_trace": [(numerics.index_label(p), r) for p, r in zip(probe_list, lR)],
            "method": "block",
            "series": series,
        }
        return _sup_verdict(lR, diagnostics, window=2)
    x, logm, D, fit = tail_series(seq, horizon, alpha, beta)
    terms = -D / beta
    report = classify_series(D, beta, fit, terms)
    diagnostics = {"series": report}
    if report.kind == "divergent":
        return Status.FAILS, {}, None, diagnostics
    if report.kind == "inconclusive":
        return Status.INCONCLUSIVE, {}, None, diagnostics
    half = horizon // 2 + 1
    # the sup reads T_p for p < half only, but T_0 needs the whole fold
    suffix = numerics.logsumexp_suffix(terms)[:half]
    del terms  # no third horizon-sized array beside the fold and T
    # log_total aggregates from p=0; recover the beyond-horizon tail piece
    tail_piece = numerics.log_sub_exp(report.log_total, report.log_partial)
    T = np.logaddexp(suffix, tail_piece, out=suffix)  # in the fold's buffer
    lR = logm[:half] / beta - (1.0 - alpha) * x[:half] + T
    diagnostics["sup_trace"] = [
        (int(i - 1), float(lR[i - 1])) for i in numerics.geometric_indices(half, 24)
    ]
    return _sup_verdict(lR, diagnostics)


# Status-only gamma probes sum their terms in rows of this many. A suffix
# sum, scaled to the larger of its row's top term and the rows after it, is
# read only when at least _UNDERFLOW: below it, terms that underflowed to
# zero could matter.
_CHUNK = 2048
_UNDERFLOW = 1e-280
_EPS = float(np.finfo(float).eps)


def _sup_status(
    x: np.ndarray, logm: np.ndarray, beta: float, horizon: int, log_tail: Optional[float]
) -> Optional[Status]:
    """The status of _sup_series(seq, horizon, 0, beta) on a convergent
    series with fitted tail log_tail, or None when it cannot be certified.

    The suffix sums T_p = log(sum_{q>=p} e^(t_q) + tail), t = -log m/beta,
    come from per-row exp, reversed cumsum and log, with the later rows
    carried in by one short fold over the row totals; R(p) and its running
    sup follow as in _sup_verdict. The exact engine folds term by term
    instead, so its floats differ from these by at most `margin`: both
    engines' folds (8*(n + rows + row length)*eps per unit of the largest
    magnitude), plus the rounding of its tail piece
    log_sub_exp(log_total, log_partial), at most about
    ulp(log_total)*e^(log_total - T_p). A tail below ulp(log_partial)/8
    relative to the partial sum rounds away in log_total, so it counts as
    none. The status stands when the sup gap clears both thresholds by the
    margin; non-finite terms, underflow and a gap within the margin of a
    threshold give None.
    """
    n, half = logm.size, horizon // 2 + 1
    rows, k = -(-n // _CHUNK), -(-half // _CHUNK)  # all rows; rows holding p < half
    grid = np.empty((rows, _CHUNK))  # worked on in place: no n-sized temporaries
    flat = grid.reshape(-1)
    np.divide(logm, -beta, out=flat[:n])  # t, bit for bit as the exact engine's
    flat[n:] = -math.inf
    top = grid.max(axis=1)
    lo, hi = float(flat[:n].min()), float(top.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    grid -= top[:, None]
    np.exp(grid, out=grid)
    totals = top + np.log(grid.sum(axis=1))
    after = np.logaddexp.accumulate(totals[::-1])[::-1]  # rows j..rows-1
    head = grid[:k]
    np.cumsum(head[:, ::-1], axis=1, out=head[:, ::-1])  # suffix sums within a row
    P = float(after[0])
    V = max(abs(lo), abs(P)) + 1.0
    fold = 8.0 * (n + _CHUNK + rows) * _EPS * V  # both engines' folds
    carry = np.append(after[1:], -math.inf)[:k]  # the rows after each row
    LT = None  # log(partial sum + tail) when the exact engine keeps a tail piece
    if log_tail is not None:
        floor = abs(P) - fold
        if not (floor > 0 and log_tail - P + fold < math.log(math.ulp(floor) / 8)):
            carry = np.logaddexp(carry, log_tail)
            LT = float(np.logaddexp(P, log_tail))
            # the tail piece's log1mexp is as large as -log(ulp(log_total))
            V = max(V, abs(log_tail) + 1.0, abs(LT) + 1.0, 1.0 - math.log(math.ulp(abs(LT))))
            fold = 8.0 * (n + _CHUNK + rows) * _EPS * V
    scale = np.maximum(top[:k], carry)
    head *= np.exp(top[:k] - scale)[:, None]
    head += np.exp(carry - scale)[:, None]
    T = flat[:half]
    if T.min() < _UNDERFLOW:
        return None
    np.log(T, out=T)
    head += scale[:, None]  # T, a view of head, now holds T_p
    tail = 0.0
    if LT is not None:
        log_tail_error = math.log(math.ulp(abs(LT) + fold)) + LT + fold - float(T.min())
        if log_tail_error > math.log(0.25):
            return None
        tail = math.exp(log_tail_error)
    lR = logm[:half] / beta
    lR -= x[:half]
    lR += T
    final = float(lR.max())
    gap = final - float(lR[: max((3 * half) // 4 - 1, 0) + 1].max())
    size = max(abs(final), abs(float(lR.min()))) + 1.0
    margin = 2.0 * (fold + 2.0 * tail) + 8.0 * _EPS * size
    stable, growth = math.log1p(STAB_RTOL), math.log(GROWTH_FACTOR)
    if gap + margin <= stable:
        return Status.HOLDS_AT_HORIZON
    if gap - margin > growth:
        return Status.FAILS
    if gap - margin > stable and gap + margin <= growth:
        return Status.INCONCLUSIVE
    return None


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_CHECKERS = {
    "lc": lambda seq, h: _check_convexity(seq, h, shifted=False),
    "wlc": lambda seq, h: _check_convexity(seq, h, shifted=True),
    "dc": _check_dc,
    "mg": _check_mg,
    "nq": _check_nq,
    "snq": lambda seq, h: _sup_series(seq, h, 1.0, 1.0),
}


def _degenerate_warning(seq: WeightSequence, horizon: int) -> Optional[str]:
    # weight sequences need m_p -> infinity; a flat or falling quotient trend
    # still parses but deserves a flag
    logm = seq.log_m_array(min(horizon, 512))
    n = len(logm)
    head = float(np.max(logm[: max(n // 4, 1)]))
    tail = float(np.max(logm[(3 * n) // 4 :]))
    if tail <= head + 1e-9:
        return "quotients m_p do not trend upward at this horizon; not a weight sequence"
    return None


def check_condition(
    seq: WeightSequence,
    cond: str,
    horizon: int = 4096,
) -> Verdict:
    """Check one growth condition up to the horizon.

    The numeric check always runs, and constructor metadata always applies:
    certainty upgrades a numeric result to exact_holds; a numeric failure
    with a witness under a certificate is an internal contradiction and
    raises, while a witness-less (horizon-limited) failure leaves the
    certificate standing. A metadata refutation without a numeric witness is
    reported inconclusive with the analytic note in the diagnostics.
    """
    if cond not in CONDITIONS:
        raise ValidationError(f"check_condition: unknown condition {cond!r}")
    if horizon < 8:
        raise ValidationError("check_condition: horizon must be >= 8")
    status, constants, witness, diagnostics = _CHECKERS[cond](seq, horizon)
    warning = _degenerate_warning(seq, horizon)
    if warning:
        diagnostics = {**diagnostics, "warning": warning}
    verdict = Verdict(cond, status, horizon, constants, witness, diagnostics)
    if seq.certifies(cond):
        if status == Status.FAILS and witness is not None:
            raise InternalInvariantError(
                f"{seq.name}: metadata certifies ({cond}) but the numeric check "
                f"found witness {witness}"
            )
        return replace(
            verdict,
            status=Status.EXACT_HOLDS,
            diagnostics={**diagnostics, "certificate": "constructor metadata"},
        )
    if seq.refutes(cond):
        if status == Status.FAILS:
            return replace(
                verdict,
                diagnostics={**diagnostics, "certificate": "refuted by construction"},
            )
        return replace(
            verdict,
            status=Status.INCONCLUSIVE,
            diagnostics={
                **diagnostics,
                "certificate": "refuted by construction; no finite witness at this horizon",
            },
        )
    return verdict


def check_gamma_beta(
    seq: WeightSequence,
    beta: float,
    horizon: int = 4096,
) -> Verdict:
    """Check sum_{q>=p} m_q^(-1/beta) <= C*(p+1)*m_p^(-1/beta) up to the horizon.

    Reports holds_at_horizon with C = sup R(p) when the running sup of
    R(p) = m_p^(1/beta) * sum_{q>=p} m_q^(-1/beta) / (p+1) stabilizes, fails
    on divergence of the series or sustained growth of R, else inconclusive.
    """
    _check_gamma_args(beta, horizon)
    status, constants, witness, diagnostics = _sup_series(seq, horizon, 0.0, beta)
    diagnostics = {**diagnostics, "beta": beta}
    return Verdict(f"gamma_{beta:g}", status, horizon, constants, witness, diagnostics)


def gamma_beta_status(seq: WeightSequence, beta: float, horizon: int = 4096) -> Status:
    """check_gamma_beta(seq, beta, horizon).status, without building the verdict.

    A tail fit that finds the series divergent or inconclusive settles the
    probe at once. A convergent one goes to the certified fast path
    (_sup_status), which needs no term-by-term fold; where it cannot certify
    the status (non-finite terms, underflow, a sup gap near a threshold), and
    for delta-block families, the exact engine _sup_series decides.
    """
    _check_gamma_args(beta, horizon)
    if seq.block_profile() is None:
        x, logm, _, fit = tail_series(seq, horizon, 0.0, beta)
        kind, _, log_tail = tail_decision(fit, beta, horizon + 1)
        if kind == "divergent":
            return Status.FAILS
        if kind == "inconclusive":
            return Status.INCONCLUSIVE
        status = _sup_status(x, logm, beta, horizon, log_tail)
        if status is not None:
            return status
    return _sup_series(seq, horizon, 0.0, beta)[0]


def _check_gamma_args(beta: float, horizon: int) -> None:
    if not (beta > 0) or not math.isfinite(beta):
        raise ValidationError("check_gamma_beta: beta must be a finite number > 0")
    if horizon < 64:
        raise ValidationError("check_gamma_beta: horizon must be >= 64")
