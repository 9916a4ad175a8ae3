"""Bracketing estimators for the two growth indices of a weight sequence.

gamma(M) is the supremum of beta for which the beta-parametric suffix
condition holds; it is bracketed by bisection over beta with the condition
checker as oracle, cross-checked against the almost-increasing estimator
(the minimal pairwise slope of log m against log p over well-separated
probe pairs).

omega(M) is liminf log(m_p)/log(p); the primary estimate takes the minimum
of that ratio over the tail half of a probe ladder (dyadic indices, plus the
exact block boundaries for delta-block families, reached through big-index
closed forms), and the secondary estimate is the convergence threshold of
sum m_p^(-1/mu) in mu.

Both estimators report every probe so results can be replayed, and claim
converged=true only when the two routes agree within tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numerics
from .conditions import (
    Status,
    check_gamma_beta,  # noqa: F401 -- benchmarks/tracing.py wraps indices.check_gamma_beta
    classify_power_series,
    classify_series,  # noqa: F401 -- benchmarks/tracing.py wraps indices.classify_series
    gamma_beta_status,
    tail_decision,
    tail_series,
)
from .errors import ValidationError
from .sequences import WeightSequence

# the largest beta and mu probed; an index at or past it reports [INDEX_MAX, inf]
INDEX_MAX = 64.0


@dataclass(frozen=True)
class IndexEstimate:
    index: str
    lower: float
    upper: float
    estimate: float
    method: str
    cross_method: str
    cross_value: float
    samples: tuple[tuple[str, str], ...]
    converged: bool


def _probe_ladder(seq: WeightSequence, horizon: int) -> list[int]:
    """Dyadic probes up to the horizon plus exact block boundaries (j <= 8)."""
    probes = set()
    v = 2
    while v <= horizon:
        probes.add(v)
        v *= 2
    profile = seq.block_profile()
    if profile is not None:
        probes.update(profile.boundaries())
    return sorted(p for p in probes if p >= 2)


def _min_pairwise_slope(seq: WeightSequence, horizon: int) -> float:
    """min over probe pairs with span >= log 4 of the slope of log m vs log p.

    This is the almost-increasing estimator: it equals the largest mu for
    which m_p/(p+1)^mu stays almost increasing along the ladder. Pairs are
    taken from the tail half of the ladder (the index is asymptotic; small-p
    pairs only perturb the constant), falling back to the full ladder when
    the tail is too narrow to hold a well-separated pair.
    """
    probes = _probe_ladder(seq, horizon)
    x = [math.log(p + 1) for p in probes]
    y = [seq.log_m(p) for p in probes]

    def scan(start: int) -> float:
        best = math.inf
        for i in range(start, len(probes)):
            for j in range(i + 1, len(probes)):
                span = x[j] - x[i]
                if span < math.log(4.0) - 1e-12:
                    continue
                best = min(best, (y[j] - y[i]) / span)
        return best

    best = scan(len(probes) // 2)
    if math.isinf(best):
        best = scan(0)
    return best


def _check_tol(tol: float, where: str) -> None:
    """Refuse a bracket tolerance that is not greater than 0 (nan included):
    a bisection would never get its bracket that narrow."""
    if not (tol > 0):
        raise ValidationError(f"{where}: tol must be > 0")


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def gamma_index(
    seq: WeightSequence,
    horizon: int = 4096,
    tol: float = 0.05,
) -> IndexEstimate:
    """Bracket gamma(M) = sup{beta > 0 : the beta-condition holds}.

    Bisection over (0, INDEX_MAX]; holding at INDEX_MAX itself reports the
    +infinity marker in `upper`. An inconclusive probe is retried at two
    nudged positions; if neither settles, the bracket stops shrinking and
    converged is false. The bisection also stops when a pass leaves the
    bracket unchanged: one ulp wide, its midpoint rounds onto an end.
    """
    _check_tol(tol, "gamma_index")
    samples: list[tuple[str, str]] = []

    def probe(beta: float) -> Status:
        status = gamma_beta_status(seq, beta, horizon)
        samples.append((f"beta={beta:g}", status.value))
        return status

    converged = True
    top = probe(INDEX_MAX)
    if top in (Status.HOLDS_AT_HORIZON, Status.EXACT_HOLDS):
        lower, upper = INDEX_MAX, math.inf
    else:
        if top == Status.INCONCLUSIVE:
            converged = False
        lower, upper = 0.0, INDEX_MAX
        while upper - lower > tol:
            bracket = (lower, upper)
            mid = 0.5 * (lower + upper)
            st = probe(mid)
            if st == Status.INCONCLUSIVE:
                converged = False
                gap = upper - lower
                st_lo = probe(mid - 0.25 * gap)
                if st_lo == Status.HOLDS_AT_HORIZON:
                    lower = mid - 0.25 * gap
                else:
                    st_hi = probe(mid + 0.25 * gap)
                    if st_hi == Status.FAILS:
                        upper = mid + 0.25 * gap
                    elif st_lo == Status.FAILS:
                        upper = mid - 0.25 * gap
                    elif st_hi == Status.HOLDS_AT_HORIZON:
                        lower = mid + 0.25 * gap
            elif st == Status.FAILS:
                upper = mid
            else:
                lower = mid
            if (lower, upper) == bracket:
                break

    cross = _min_pairwise_slope(seq, horizon)
    if math.isinf(upper):
        quarter = _min_pairwise_slope(seq, max(horizon // 4, 64))
        agree = cross >= INDEX_MAX or (quarter > 0 and cross >= 1.5 * quarter)
        estimate = math.inf
    else:
        agree = (lower - tol) <= cross <= (upper + tol)
        estimate = 0.5 * (lower + upper)
    samples.append(("almost_increasing", f"{cross:.6g}"))
    return IndexEstimate(
        index="gamma",
        lower=lower,
        upper=upper,
        estimate=estimate,
        method="gamma_bisection",
        cross_method="gamma_almost_increasing",
        cross_value=cross,
        samples=tuple(samples),
        converged=converged and agree,
    )


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------


def _omega_series_value(
    seq: WeightSequence,
    horizon: int,
    tol: float,
    samples: list[tuple[str, str]],
) -> tuple[float, float]:
    """(lower, upper) for the convergence threshold of sum m_p^(-1/mu).

    Delta-block families are bisected with the blockwise classifier as the
    oracle, until the bracket is within tol or a pass leaves it unchanged;
    otherwise the threshold is read off the fitted tail exponent.
    """
    if seq.block_profile() is not None:
        lo, hi = 0.0, INDEX_MAX
        rep = classify_power_series(seq, horizon, 0.0, INDEX_MAX)
        samples.append((f"mu={INDEX_MAX:g}", rep.kind))
        if rep.kind == "convergent":
            return INDEX_MAX, math.inf
        while hi - lo > tol:
            bracket = (lo, hi)
            mid = 0.5 * (lo + hi)
            rep = classify_power_series(seq, horizon, 0.0, mid)
            samples.append((f"mu={mid:g}", rep.kind))
            if rep.kind == "convergent":
                lo = mid
            elif rep.kind == "divergent":
                hi = mid
            else:
                return math.nan, math.nan
            if (lo, hi) == bracket:
                break
        return lo, hi
    _, logm, _, fit = tail_series(seq, horizon, 0.0, 1.0)
    exponent = tail_decision(fit, 1.0, len(logm))[1]
    samples.append(("tail_exponent", f"{exponent:.6g}"))
    if math.isnan(exponent):
        return math.nan, math.nan
    return exponent, exponent


def omega_index(
    seq: WeightSequence,
    horizon: int = 4096,
    tol: float = 0.05,
) -> IndexEstimate:
    """Bracket omega(M) = liminf log(m_p)/log(p).

    The liminf route takes the minimum of the ratio over the tail half of the
    probe ladder and reports the +infinity marker when the ratio is still
    growing by 50% per half-ladder above INDEX_MAX. The series route locates the
    convergence threshold; converged requires agreement.
    """
    _check_tol(tol, "omega_index")
    if horizon < 64:
        raise ValidationError("omega_index: horizon must be >= 64")
    probes = _probe_ladder(seq, horizon)
    ratios = [seq.log_m(p) / math.log(p) for p in probes]
    samples: list[tuple[str, str]] = [
        (numerics.index_label(p), f"{r:.6g}") for p, r in zip(probes, ratios)
    ]
    tail = ratios[len(ratios) // 2 :]
    tail_min = min(tail)
    growing = ratios[-1] >= 1.5 * ratios[len(ratios) // 2] and ratios[-1] > INDEX_MAX
    s_lo, s_hi = _omega_series_value(seq, horizon, tol, samples)

    if growing:
        lower, upper, estimate, cross_value = INDEX_MAX, math.inf, math.inf, s_lo
        converged = (not math.isnan(s_lo)) and s_lo >= INDEX_MAX
    elif math.isnan(s_lo):
        lower = upper = estimate = tail_min
        cross_value, converged = math.nan, False
    else:
        cross_value = s_hi if math.isinf(s_hi) else 0.5 * (s_lo + s_hi)
        lower, upper = min(tail_min, s_lo), max(tail_min, s_hi)
        converged = (
            not math.isinf(cross_value)
            and abs(tail_min - cross_value) <= tol * max(1.0, abs(tail_min))
        )
        estimate = 0.5 * (lower + upper) if not math.isinf(upper) else tail_min
    return IndexEstimate(
        index="omega",
        lower=lower,
        upper=upper,
        estimate=estimate,
        method="omega_liminf",
        cross_method="omega_series",
        cross_value=cross_value,
        samples=tuple(samples),
        converged=converged,
    )
