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
doubly exponential indices where termwise summation is impossible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import numerics
from .errors import InternalInvariantError, ValidationError
from .sequences import EX38_K, EX38_Q, BlockProfile, WeightSequence

CONDITIONS = ("lc", "wlc", "dc", "mg", "nq", "snq")

# direct termwise summation below this index; closed-form block integrals above
BLOCK_DIRECT_CAP = 4096


class Status(Enum):
    EXACT_HOLDS = "exact_holds"
    HOLDS_AT_HORIZON = "holds_at_horizon"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"
    CONDITIONAL = "conditional"


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

    @property
    def definite(self) -> bool:
        return self.status in (Status.EXACT_HOLDS, Status.HOLDS_AT_HORIZON, Status.FAILS)

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "status": self.status.value,
            "horizon": self.horizon,
            "constants": numerics.jsonable(self.constants),
            "diagnostics": numerics.jsonable(self.diagnostics),
        }
        if self.witness is not None:
            out["witness"] = numerics.jsonable(self.witness)
        return out


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
                "windows": list(self.windows),
                "log_partial": self.log_partial,
                "log_total": self.log_total,
                "method": self.method,
                "partial_sum_trace": [list(t) for t in self.trace],
                "block_sums": list(self.block_sums),
            }
        )


def classify_series(log_denominators: np.ndarray, theta: float) -> SeriesReport:
    """Classify sum_p exp(-D_p/theta) from the first len(D) terms.

    The composite slope c of D against log(p+1) is fitted on the two halves
    of the last quartile; agreement within series_window_rtol makes the fit
    stable. Stable fits compare c against theta; unstable fits still decide
    the clear cases (both slopes far above threshold, or both below).
    """
    D = np.asarray(log_denominators, dtype=float)
    n = len(D)
    logt = -D / theta
    lp = np.logaddexp.accumulate(logt)
    trace = tuple(
        (int(i), float(lp[i - 1])) for i in numerics.geometric_indices(n, 24)
    )
    if n < 16:
        return SeriesReport(
            "inconclusive", theta, math.nan, (math.nan, math.nan),
            float(lp[-1]), math.nan, trace,
        )
    x = np.log(np.arange(1, n + 1, dtype=float))
    w1, w2 = numerics.last_quartile_windows(n)
    c1, _ = numerics.fit_line(x[w1], D[w1])
    c2, _ = numerics.fit_line(x[w2], D[w2])
    stable = numerics.slopes_stable(c1, c2, SERIES_WINDOW_RTOL)
    q = slice((3 * n) // 4, n)
    c_fit, b_fit = numerics.fit_line(x[q], D[q])

    if stable:
        c = 0.5 * (c1 + c2)
        kind = "divergent" if c / theta <= 1.0 + SERIES_MARGIN else "convergent"
    elif min(c1, c2) / theta >= CLEAR_MARGIN:
        c = min(c1, c2)
        kind = "convergent"
    elif max(c1, c2) / theta <= 1.0 + SERIES_MARGIN:
        c = max(c1, c2)
        kind = "divergent"
    else:
        return SeriesReport(
            "inconclusive", theta, math.nan, (c1, c2), float(lp[-1]), math.nan, trace
        )

    log_total = math.nan
    if kind == "convergent":
        e_t = c_fit / theta
        if e_t <= 1.0 + SERIES_MARGIN:
            e_t = c / theta
        if e_t > 1.0 + SERIES_MARGIN:
            log_tail = (
                -b_fit / theta - (e_t - 1.0) * math.log(n + 1) - math.log(e_t - 1.0)
            )
            log_total = float(np.logaddexp(lp[-1], log_tail))
        else:
            log_total = float(lp[-1])
    return SeriesReport(kind, theta, c, (c1, c2), float(lp[-1]), log_total, trace)


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


def _block_parts(
    seq: WeightSequence,
    profile: BlockProfile,
    alpha: float,
    beta: float,
    cap: int,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Direct log-terms below `cap` plus per-segment log-sums beyond it."""
    logm = seq.log_m_array(cap - 1)
    p = np.arange(cap, dtype=float)
    direct = -alpha * np.log(p + 1.0) - logm[: cap] / beta
    seg_sums: list[tuple[int, float]] = []
    for a, b, delta in profile.segments():
        if b < cap:
            continue
        left = max(a, cap)
        if left > b:
            continue
        seg_sums.append(
            (left, _segment_log_sum(seq, profile, left, b, delta, alpha, beta))
        )
    return direct, seg_sums


def classify_block_series(
    seq: WeightSequence,
    profile: BlockProfile,
    alpha: float,
    beta: float,
) -> SeriesReport:
    """Blockwise classification of sum (p+1)^(-alpha) m_p^(-1/beta).

    Per-segment sums alternate between the two block slopes; growth across
    same-type segments at the far end of the table decides divergence. The
    doubly exponential segment lengths make the growth signal sharp.
    """
    direct, seg_sums = _block_parts(seq, profile, alpha, beta, BLOCK_DIRECT_CAP)
    log_partial = float(np.logaddexp.reduce(direct))
    LS = [s for (_, s) in seg_sums]
    divergent = False
    for i in range(max(0, len(LS) - 6), len(LS) - 2):
        if LS[i + 2] > LS[i]:
            divergent = True
    trace = ((BLOCK_DIRECT_CAP - 1, log_partial),)
    if divergent:
        return SeriesReport(
            "divergent", beta, math.nan, (math.nan, math.nan),
            log_partial, math.nan, trace, method="block", block_sums=tuple(LS),
        )
    log_total = float(np.logaddexp.reduce(np.array([log_partial] + LS)))
    return SeriesReport(
        "convergent", beta, math.nan, (math.nan, math.nan),
        log_partial, log_total, trace, method="block", block_sums=tuple(LS),
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
        return classify_block_series(seq, profile, alpha, beta)
    logm = seq.log_m_array(horizon)
    x = np.log(np.arange(1, horizon + 2, dtype=float))
    D = beta * alpha * x + logm
    return classify_series(D, beta)


# ---------------------------------------------------------------------------
# pointwise checks
# ---------------------------------------------------------------------------


def _check_convexity(seq: WeightSequence, horizon: int, shifted: bool):
    logm = seq.log_m_array(horizon)
    d = np.diff(logm)
    if shifted:
        d = d + np.log1p(1.0 / np.arange(1, horizon + 1, dtype=float))
    i = int(np.argmin(d))
    diagnostics = {"min_second_difference": float(d[i]), "argmin": i + 1}
    if d[i] < -POINTWISE_TOL:
        witness = {"p": i + 1, "second_difference": float(d[i])}
        return Status.FAILS, {}, witness, diagnostics
    return Status.HOLDS_AT_HORIZON, {}, None, diagnostics


def _check_dc(seq: WeightSequence, horizon: int):
    logm = seq.log_m_array(horizon)
    r = logm / np.arange(1, horizon + 2, dtype=float)
    stable, sup = numerics.running_sup_stabilized(r, STAB_RTOL)
    try:
        H = math.exp(max(sup, 0.0))
    except OverflowError:
        H = math.inf
    constants = {"C0": 1.0, "H": H}
    diagnostics = {
        "sup_trace": [(int(i), float(np.max(r[:i]))) for i in numerics.geometric_indices(len(r), 16)],
    }
    if stable:
        return Status.HOLDS_AT_HORIZON, constants, None, diagnostics
    return Status.INCONCLUSIVE, constants, None, diagnostics


def _check_mg(seq: WeightSequence, horizon: int):
    logM = seq.log_M_array(horizon)
    n = np.arange(2, horizon + 1)
    d = logM[n] - logM[n // 2] - logM[(n + 1) // 2]
    r = d / n
    stable, sup = numerics.running_sup_stabilized(r, STAB_RTOL)
    diagnostics = {
        "split_trace": [
            (int(n[i]), float(r[i])) for i in numerics.geometric_indices(len(r), 16) - 1
        ],
    }
    if stable:
        log_H = max(sup, 0.0)
        constants = {
            "C0": 1.0,
            "H": math.exp(log_H) if log_H < 700.0 else math.inf,
            "log_H": log_H,
        }
        return Status.HOLDS_AT_HORIZON, constants, None, diagnostics
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
            constants = {
                "C0": 1.0,
                "H": math.exp(log_H) if log_H < 700.0 else math.inf,
                "log_H": log_H,
            }
            return Status.FAILS, constants, witness, diagnostics
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
    diagnostics = {"series": report.to_json()}
    if report.kind == "convergent":
        return Status.HOLDS_AT_HORIZON, {"sum": _exp(report.log_total)}, None, diagnostics
    if report.kind == "divergent":
        return Status.FAILS, {}, None, diagnostics
    return Status.INCONCLUSIVE, {}, None, diagnostics


def _sup_verdict(values: list[float], diagnostics: dict, window: Optional[int] = None):
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
    arr = np.asarray(values, dtype=float)
    run = np.maximum.accumulate(arr)
    final = float(run[-1])
    if window is None:
        i0 = max((3 * len(arr)) // 4 - 1, 0)
    else:
        i0 = max(len(arr) - 1 - window, 0)
    gap = final - float(run[i0])
    sup = _exp(final)
    if gap <= math.log1p(STAB_RTOL):
        return Status.HOLDS_AT_HORIZON, {"C": sup}, None, diagnostics
    if gap > math.log(GROWTH_FACTOR):
        return Status.FAILS, {"sup_so_far": sup}, None, diagnostics
    return Status.INCONCLUSIVE, {}, None, diagnostics


def _block_log_suffix(
    seq: WeightSequence, profile: BlockProfile, alpha: float, beta: float
) -> Callable[[int], float]:
    """p -> log sum_{q>=p} (q+1)^(-alpha) m_q^(-1/beta) for a delta-block
    family: exact direct terms below the cap, closed-form segment integrals
    above it."""
    cap = BLOCK_DIRECT_CAP
    direct, seg_sums = _block_parts(seq, profile, alpha, beta, cap)
    suffix = numerics.logsumexp_suffix(direct)
    beyond = [s for (_, s) in seg_sums]
    log_beyond = (
        float(np.logaddexp.reduce(np.array(beyond))) if beyond else -math.inf
    )
    segments = profile.segments()

    def log_T(p: int) -> float:
        if p < cap:
            return float(np.logaddexp(suffix[p], log_beyond))
        parts = []
        for a, b, delta in segments:
            if b < p:
                continue
            left = max(a, p, cap)
            if left > b:
                continue
            parts.append(_segment_log_sum(seq, profile, left, b, delta, alpha, beta))
        if not parts:
            return -math.inf
        return float(np.logaddexp.reduce(np.array(parts)))

    return log_T


def _sup_series(seq: WeightSequence, horizon: int, alpha: float, beta: float):
    """Shared engine for (snq) (alpha = beta = 1) and the beta-parametric
    condition (alpha = 0): the sup over p of

        R(p) = m_p^(1/beta) * (p+1)^(alpha-1) * sum_{q>=p} (q+1)^(-alpha) m_q^(-1/beta)

    Delta-block families probe R at dyadic indices plus the block boundaries,
    with suffix sums from _block_log_suffix. Otherwise the suffix sums take
    the computed terms up to the horizon plus a fitted integral tail, and
    the sup runs over p <= horizon/2.
    """
    profile = seq.block_profile()
    if profile is not None:
        series = classify_block_series(seq, profile, alpha, beta)
        if series.divergent:
            return Status.FAILS, {}, None, {"series": series.to_json()}
        log_T = _block_log_suffix(seq, profile, alpha, beta)
        probe_list: list[int] = [0, 1, 2]
        v = 4
        while v < BLOCK_DIRECT_CAP:
            probe_list.append(v)
            v *= 4
        for j in range(9):
            for boundary in (EX38_K[j], EX38_Q[j]):
                if boundary >= BLOCK_DIRECT_CAP:
                    probe_list.append(boundary)
        probe_list = sorted(set(probe_list))
        lR = [
            seq.log_m(p) / beta - (1.0 - alpha) * math.log(p + 1) + log_T(p)
            for p in probe_list
        ]
        diagnostics = {
            "sup_trace": [(numerics.index_label(p), r) for p, r in zip(probe_list, lR)],
            "method": "block",
            "series": series.to_json(),
        }
        return _sup_verdict(lR, diagnostics, window=2)
    logm = seq.log_m_array(horizon)
    x = np.log(np.arange(1, horizon + 2, dtype=float))
    # bit-exact for alpha = 0 too: log_m_array never holds -0.0
    D = beta * alpha * x + logm
    report = classify_series(D, beta)
    diagnostics = {"series": report.to_json()}
    if report.kind == "divergent":
        return Status.FAILS, {}, None, diagnostics
    if report.kind == "inconclusive":
        return Status.INCONCLUSIVE, {}, None, diagnostics
    suffix = numerics.logsumexp_suffix(-D / beta)
    # log_total aggregates from p=0; recover the beyond-horizon tail piece
    tail_piece = numerics.log_sub_exp(report.log_total, report.log_partial)
    T = np.logaddexp(suffix, tail_piece)
    half = horizon // 2 + 1
    lR = logm[:half] / beta - (1.0 - alpha) * x[:half] + T[:half]
    diagnostics["sup_trace"] = [
        (int(i - 1), float(lR[i - 1])) for i in numerics.geometric_indices(half, 24)
    ]
    return _sup_verdict(list(lR), diagnostics)


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
    trust_metadata: bool = True,
) -> Verdict:
    """Check one growth condition up to the horizon.

    Metadata certainty upgrades a numeric result to exact_holds; a numeric
    failure with a witness under a metadata certificate is an internal
    contradiction and raises, while a witness-less (horizon-limited)
    failure leaves the certificate standing. A metadata refutation without
    a numeric witness is reported inconclusive with the analytic note in the
    diagnostics.
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
    if not trust_metadata:
        return verdict
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
    if not (beta > 0) or not math.isfinite(beta):
        raise ValidationError("check_gamma_beta: beta must be a finite number > 0")
    if horizon < 64:
        raise ValidationError("check_gamma_beta: horizon must be >= 64")
    status, constants, witness, diagnostics = _sup_series(seq, horizon, 0.0, beta)
    diagnostics = {**diagnostics, "beta": beta}
    return Verdict(f"gamma_{beta:g}", status, horizon, constants, witness, diagnostics)
