"""Index estimators: brackets for gamma and omega on the stock families."""

import math

import pytest

from momentgate import indices, numerics
from momentgate import (
    DerivedSpec,
    Example38Spec,
    ExplicitSpec,
    GevreySpec,
    QGevreySpec,
    ValidationError,
    check_gamma_beta,
    derive,
    gamma_index,
    make_sequence,
    omega_index,
)
from momentgate.conditions import classify_series, tail_decision, tail_series


@pytest.mark.parametrize("s", [0.4, 1.0, 2.5])
def test_gamma_gevrey_bracket(s):
    est = gamma_index(make_sequence(GevreySpec(s=s)), horizon=4096)
    # gamma(gevrey(s)) = s; bisection stops just below the exact threshold
    assert est.lower <= s <= est.upper + 1e-12
    assert est.upper - est.lower <= 0.05
    assert est.converged


@pytest.mark.parametrize("s", [0.3, 1.0, 3.0])
def test_omega_gevrey_estimate(s):
    est = omega_index(make_sequence(GevreySpec(s=s)), horizon=4096)
    assert est.estimate == pytest.approx(s, abs=0.05)
    assert est.converged


def test_gamma_q_gevrey_reports_infinity():
    est = gamma_index(make_sequence(QGevreySpec(q=2.0)), horizon=4096)
    assert est.lower == 64.0
    assert est.upper == math.inf
    assert est.converged


def test_omega_q_gevrey_reports_infinity():
    est = omega_index(make_sequence(QGevreySpec(q=2.0)), horizon=4096)
    assert math.isinf(est.estimate)
    assert est.converged


def test_example38_split_indices():
    seq = make_sequence(Example38Spec())
    g = gamma_index(seq, horizon=100_000)
    o = omega_index(seq, horizon=100_000)
    # gamma = 2 strictly below omega = 5/2
    assert g.lower <= 2.0 <= g.upper + 1e-12
    assert g.upper - g.lower <= 0.2
    assert abs(o.estimate - 2.5) <= 0.05
    assert g.upper <= o.estimate + 0.1


def test_example38_half_power():
    seq = derive(make_sequence(Example38Spec()), "power", s=0.5)
    g = gamma_index(seq, horizon=100_000)
    assert g.lower <= 1.0 <= g.upper + 1e-12


def test_gamma_at_most_omega_on_lc_examples():
    for spec in (GevreySpec(s=0.7), GevreySpec(s=1.8), Example38Spec()):
        seq = make_sequence(spec)
        g = gamma_index(seq, horizon=8192)
        o = omega_index(seq, horizon=8192)
        assert g.upper <= o.estimate + 0.1


def test_index_validation():
    seq = make_sequence(GevreySpec(s=1.0))
    with pytest.raises(ValidationError):
        gamma_index(seq, tol=0.0)
    with pytest.raises(ValidationError):
        omega_index(seq, horizon=32)


def test_samples_are_recorded():
    est = gamma_index(make_sequence(GevreySpec(s=1.0)), horizon=1024)
    assert len(est.samples) >= 4
    assert all(len(pair) == 2 for pair in est.samples)
    j = numerics.jsonable(est)
    assert j["index"] == "gamma" and isinstance(j["samples"], list)


_PROBE_SPECS = {
    "gevrey_0.4": GevreySpec(s=0.4),
    "gevrey_2.5": GevreySpec(s=2.5),
    "q_gevrey_2": QGevreySpec(q=2.0),
    "explicit_arithmetic": ExplicitSpec((0.1, 0.3, 0.6), "arithmetic", 0.2),
    "explicit_power": ExplicitSpec((0.0, 0.5, 0.9), "power", 1.3),
    "hat": DerivedSpec("hat", GevreySpec(s=1.5)),
    "check": DerivedSpec("check", GevreySpec(s=1.5)),
    "power": DerivedSpec("power", GevreySpec(s=1.2), s=0.7),
    "dc_minorant": DerivedSpec("dc_minorant", GevreySpec(s=2.0)),
    "example38": Example38Spec(),
}


@pytest.mark.parametrize("horizon", [256, 4096])
@pytest.mark.parametrize("name", list(_PROBE_SPECS))
def test_status_probes_replay_the_full_check(name, horizon, monkeypatch):
    # the bisection's status-only probes must walk the same betas to the same
    # statuses as the full check_gamma_beta verdicts
    spec = _PROBE_SPECS[name]
    fast_status = indices.gamma_beta_status

    def compared(seq, beta, h):
        status = fast_status(seq, beta, h)
        assert status is check_gamma_beta(make_sequence(spec), beta, h).status
        return status

    monkeypatch.setattr(indices, "gamma_beta_status", compared)
    fast = gamma_index(make_sequence(spec), horizon=horizon)
    monkeypatch.setattr(
        indices, "gamma_beta_status", lambda seq, beta, h: check_gamma_beta(seq, beta, h).status
    )
    full = gamma_index(make_sequence(spec), horizon=horizon)
    assert fast.samples == full.samples
    assert fast == full

    if name != "example38":
        seq = make_sequence(spec)
        exponent = classify_series(seq.log_m_array(horizon), 1.0).exponent
        samples = dict(omega_index(seq, horizon=horizon).samples)
        assert samples["tail_exponent"] == f"{exponent:.6g}"
        _, logm, _, fit = tail_series(seq, horizon, 0.0, 1.0)
        assert tail_decision(fit, 1.0, len(logm))[1] == exponent
