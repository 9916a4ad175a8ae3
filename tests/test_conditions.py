"""Growth-condition checkers against known profiles and witnesses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import (
    DerivedSpec,
    ExplicitSpec,
    GevreySpec,
    QGevreySpec,
    Status,
    ValidationError,
    check_condition,
    check_gamma_beta,
    classify_power_series,
    make_sequence,
)
from momentgate import conditions, numerics
from momentgate.conditions import _sup_status, gamma_beta_status, tail_decision, tail_series


def wiggly():
    log_m = tuple(0.5 + 0.45 * math.sin(2.2 * p) for p in range(40))
    return make_sequence(
        ExplicitSpec(log_m=log_m, tail_rule="power", tail_value=0.0)
    )


def test_lc_metadata_upgrade_and_numeric_fail():
    g = make_sequence(GevreySpec(s=1.0))
    v = check_condition(g, "lc")
    assert v.status is Status.EXACT_HOLDS
    assert v.diagnostics.get("certificate") == "constructor metadata"
    bad = check_condition(wiggly(), "lc")
    assert bad.status is Status.FAILS
    assert bad.witness is not None and "p" in bad.witness


def test_lc_numeric_pass_without_metadata():
    convex = make_sequence(
        ExplicitSpec(
            log_m=tuple(0.3 * p for p in range(20)),
            tail_rule="arithmetic",
            tail_value=0.3,
        )
    )
    v = check_condition(convex, "lc")
    assert v.status is Status.HOLDS_AT_HORIZON


def test_dc_constants_for_power_growth():
    g = make_sequence(GevreySpec(s=2.0))
    v = check_condition(g, "dc")
    assert v.affirmative
    # sup log m_p/(p+1) for m_p = (p+1)^2 peaks near p = 2 at 2 ln(3)/3
    assert v.constants["H"] == pytest.approx(math.exp(2 * math.log(3.0) / 3.0), rel=1e-6)


def test_mg_gevrey_exact_vs_q_gevrey_witness():
    g = make_sequence(GevreySpec(s=1.5))
    assert check_condition(g, "mg").status is Status.EXACT_HOLDS
    q = make_sequence(QGevreySpec(q=2.0))
    v = check_condition(q, "mg", horizon=4096)
    assert v.status is Status.FAILS
    assert v.witness is not None
    # the witness pair must actually break M_{p+q} <= C H^{p+q} M_p M_q
    assert v.witness["excess"] > 0
    # constants survive in log form even when H itself overflows
    assert math.isfinite(v.constants["log_H"]) or v.constants["H"] == math.inf


def test_nq_holds_for_gevrey_fails_for_constant():
    g = make_sequence(GevreySpec(s=0.5))
    v = check_condition(g, "nq")
    assert v.affirmative
    assert v.constants["sum"] > 0
    ones = make_sequence(
        ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0)
    )
    # sum 1/((p+1) m_p) is harmonic: divergent
    assert check_condition(ones, "nq").status is Status.FAILS


def test_snq_certificate_for_gevrey():
    g = make_sequence(GevreySpec(s=2.0))
    assert check_condition(g, "snq").status is Status.EXACT_HOLDS


def test_trust_metadata_off_reruns_numerics():
    # without constructor metadata the numeric verdict stands: this explicit
    # sequence is gevrey(1) term for term, log m_p = log(p+1)
    g = make_sequence(ExplicitSpec((0.0,), "power", 1.0))
    v = check_condition(g, "lc")
    assert v.status is Status.HOLDS_AT_HORIZON


def test_unknown_condition_rejected():
    g = make_sequence(GevreySpec(s=1.0))
    with pytest.raises(ValidationError):
        check_condition(g, "zzz")
    with pytest.raises(ValidationError):
        check_condition(g, "lc", horizon=4)


def test_classify_power_series_threshold():
    # sum ((p+1) m_p)^(-1/2): converges for gevrey(s) iff (1+s)/2 > 1
    slow = classify_power_series(make_sequence(GevreySpec(s=0.8)), 4096, 0.5, 2.0)
    fast = classify_power_series(make_sequence(GevreySpec(s=1.2)), 4096, 0.5, 2.0)
    assert slow.kind == "divergent"
    assert fast.kind == "convergent"
    # composite exponent theta*(alpha + s/beta) against threshold theta
    assert slow.exponent == pytest.approx(1.8, abs=0.04)
    assert fast.exponent == pytest.approx(2.2, abs=0.04)
    assert slow.exponent <= slow.theta <= fast.exponent


def test_gamma_beta_check_directions():
    assert check_gamma_beta(make_sequence(GevreySpec(s=2.0)), 1.0).affirmative
    assert check_gamma_beta(make_sequence(GevreySpec(s=0.5)), 1.0).status is Status.FAILS
    with pytest.raises(ValidationError):
        check_gamma_beta(make_sequence(GevreySpec(s=2.0)), 0.0)


def test_gamma_beta_constant_is_reported():
    v = check_gamma_beta(make_sequence(GevreySpec(s=3.0)), 1.0)
    assert v.affirmative
    assert v.constants["C"] >= 1.0


# the status-only probe decides most convergent series without the exact
# engine's term-by-term folds; every route must give the full check's status
_STATUS_SPECS = (
    GevreySpec(s=1.5),
    GevreySpec(s=0.5),
    QGevreySpec(q=2.0),
    QGevreySpec(q=4.0),
    ExplicitSpec((0.1, 0.3, 0.6), "arithmetic", 0.2),
    ExplicitSpec((0.0, 0.5, 0.9), "power", 1.3),
    DerivedSpec("hat", GevreySpec(s=1.5)),
    DerivedSpec("check", GevreySpec(s=2.5)),
    DerivedSpec("power", GevreySpec(s=1.2), 0.7),
    DerivedSpec("dc_minorant", GevreySpec(s=2.0)),
)


def _fast_status(seq, beta, horizon):
    """_sup_status on a series the tail fit finds convergent, else the
    tail fit's kind."""
    x, logm, _, fit = tail_series(seq, horizon, 0.0, beta)
    kind, _, log_tail = tail_decision(fit, beta, horizon + 1)
    return _sup_status(x, logm, beta, horizon, log_tail) if kind == "convergent" else kind


@pytest.mark.parametrize("horizon", (64, 1000, 4096, 100_000))
def test_gamma_beta_status_matches_the_full_check(horizon):
    for spec in _STATUS_SPECS:
        seq = make_sequence(spec)
        for beta in (0.05, 0.2, 0.7, 1.25, 3.0, 64.0):
            assert gamma_beta_status(seq, beta, horizon) is check_gamma_beta(seq, beta, horizon).status


def _bumped(bump, slope=1.02, horizon=4096):
    # log m = slope * log(p+1), plus a steeper stretch over 1536 <= p <= 2048:
    # R(p) rises across the last quartile of p <= horizon/2 while the series
    # still converges
    a, b = math.log(1537), math.log(2049)
    x = [math.log(p + 1) for p in range(horizon + 1)]
    log_m = tuple(slope * v + bump * min(max(v - a, 0.0), b - a) for v in x)
    return make_sequence(ExplicitSpec(log_m, "power", slope))


def test_gamma_beta_status_fast_path_decides_every_status():
    for bump, beta, want in (
        (0.0, 1.0, Status.HOLDS_AT_HORIZON),
        (1.0, 1.0, Status.INCONCLUSIVE),
        (4.0, 1.0, Status.FAILS),
    ):
        seq = _bumped(bump)
        assert _fast_status(seq, beta, 4096) is want
        assert gamma_beta_status(seq, beta, 4096) is want
        assert check_gamma_beta(seq, beta, 4096).status is want


def test_gamma_beta_status_falls_back_at_a_threshold():
    # bisect the bump to where the exact sup gap meets log(GROWTH_FACTOR)
    # to the last bits: no margin certifies a side, so the exact engine decides
    lo, hi = 1.0, 4.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if check_gamma_beta(_bumped(mid), 1.0, 4096).status is Status.FAILS:
            hi = mid
        else:
            lo = mid
    for bump in (lo, hi):
        seq = _bumped(bump)
        assert _fast_status(seq, 1.0, 4096) is None
        assert gamma_beta_status(seq, 1.0, 4096) is check_gamma_beta(seq, 1.0, 4096).status
    assert gamma_beta_status(_bumped(hi), 1.0, 4096) is Status.FAILS


@pytest.mark.parametrize("q, beta", [(4.0, 0.05), (2.0, 0.2)])
def test_gamma_beta_status_falls_back_on_underflow(q, beta):
    # the terms fall by more than 1e-280 within one row of the fast sums
    seq = make_sequence(QGevreySpec(q=q))
    assert _fast_status(seq, beta, 4096) is None
    assert gamma_beta_status(seq, beta, 4096) is check_gamma_beta(seq, beta, 4096).status


def test_gamma_beta_status_needs_no_exact_fold(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("classify_series called")

    monkeypatch.setattr(conditions, "classify_series", refuse)
    seq = make_sequence(GevreySpec(s=1.5))
    assert gamma_beta_status(seq, 1.25, 100_000) is Status.HOLDS_AT_HORIZON


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=0.6), min_size=8, max_size=24
    ),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_lc_accepts_any_nondecreasing_quotients(steps, tail_step):
    # cumulative nonnegative steps keep log m nondecreasing, hence (lc)
    log_m = []
    acc = 0.0
    for u in steps:
        acc += u
        log_m.append(acc)
    seq = make_sequence(
        ExplicitSpec(log_m=tuple(log_m), tail_rule="arithmetic", tail_value=tail_step)
    )
    assert check_condition(seq, "lc").affirmative


@given(st.floats(min_value=0.3, max_value=4.0))
@settings(max_examples=15, deadline=None)
def test_nq_gevrey_always_holds(s):
    v = check_condition(make_sequence(GevreySpec(s=s)), "nq")
    assert v.affirmative


REGULAR_KINDS = {
    "gevrey": GevreySpec(s=1.5),
    "q_gevrey": QGevreySpec(q=2.0),
    "explicit_arith": ExplicitSpec(log_m=(0.1, 0.4, 0.9), tail_rule="arithmetic", tail_value=0.3),
    "explicit_power": ExplicitSpec(
        log_m=tuple(1.7 * math.log(p + 1) + 0.003 * p for p in range(9)),
        tail_rule="power",
        tail_value=1.7,
    ),
    "derived": DerivedSpec(op="hat", base=GevreySpec(s=0.8)),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("horizon", [64, 65, 4097, 10_001])
@pytest.mark.parametrize("kind", sorted(REGULAR_KINDS))
def test_mg_split_and_dc_trace_bit_exact(kind, horizon):
    # the strided (mg) differences and the (dc) trace read off the running
    # sup equal the fancy-index gathers and prefix maxima they replace
    seq = make_sequence(REGULAR_KINDS[kind])
    logM = seq.log_M_array(horizon)
    n = np.arange(2, horizon + 1)
    gathered = logM[n] - logM[n // 2] - logM[(n + 1) // 2]
    assert np.array_equal(_bits(conditions._split_excess(logM)), _bits(gathered))

    r = seq.log_m_array(horizon) / np.arange(1, horizon + 2, dtype=float)
    want = [(int(i), float(np.max(r[:i]))) for i in numerics.geometric_indices(len(r), 16)]
    got = conditions._check_dc(seq, horizon)[3]["sup_trace"]
    assert [i for i, _ in got] == [i for i, _ in want]
    assert np.array_equal(_bits([v for _, v in got]), _bits([v for _, v in want]))
