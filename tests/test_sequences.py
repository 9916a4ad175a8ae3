"""Sequence constructors: spec parsing, evaluators, derivations."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import (
    DerivedSpec,
    Example38Spec,
    ExplicitSpec,
    GevreySpec,
    QGevreySpec,
    ValidationError,
    dc_minorant,
    derive,
    make_sequence,
    sequence_from_json,
    spec_from_json,
    spec_to_json,
)
from momentgate.sequences import MAX_DERIVED_DEPTH


def test_gevrey_matches_factorial_powers():
    seq = make_sequence(GevreySpec(s=1.5))
    for p in (0, 1, 5, 20):
        assert seq.log_M(p) == pytest.approx(1.5 * math.lgamma(p + 1), rel=1e-13)
        assert seq.log_m(p) == pytest.approx(1.5 * math.log(p + 1), rel=1e-13)
    assert seq.log_M(0) == 0.0


def test_gevrey_extended_evaluator_agrees():
    seq = make_sequence(GevreySpec(s=2.0))
    # the closed-form extension must continue the cumulative sum exactly
    assert seq.log_M_extended(300) == pytest.approx(seq.log_M(300), rel=1e-12)
    assert seq.log_M_extended(10**9) == pytest.approx(
        2.0 * math.lgamma(10**9 + 1), rel=1e-12
    )


def test_q_gevrey_quotients():
    seq = make_sequence(QGevreySpec(q=2.0))
    # M_p = q^(p^2) gives m_p = q^(2p+1)
    for p in (0, 1, 7):
        assert seq.log_m(p) == pytest.approx((2 * p + 1) * math.log(2.0), rel=1e-14)
    assert seq.log_M(4) == pytest.approx(16 * math.log(2.0), rel=1e-13)


def test_example38_matches_delta_recurrence():
    from momentgate.sequences import EX38_K, EX38_Q, example38_log_m

    # brute-force log m_p = sum_{k<=p} delta_k/k with delta = 3 on (k_j, q_j]
    def delta(k):
        for kj, qj in zip(EX38_K, EX38_Q):
            if kj < k <= qj:
                return 3
        return 2

    total = 0.0
    for p in range(1, 600):
        total += delta(p) / p
        assert example38_log_m(p) == pytest.approx(total, rel=1e-12)


def test_example38_block_slopes():
    seq = make_sequence(Example38Spec())
    profile = seq.block_profile()
    assert profile is not None
    assert profile.slope(3) == 3.0 and profile.slope(2) == 2.0
    # inside the (8, 64] block the quotients climb like p^3
    rise = seq.log_m(64) - seq.log_m(16)
    run = math.log(64.0) - math.log(16.0)
    assert rise / run == pytest.approx(3.0, abs=0.08)
    # and like p^2 inside the following (64, 512] block
    rise = seq.log_m(512) - seq.log_m(128)
    run = math.log(512.0) - math.log(128.0)
    assert rise / run == pytest.approx(2.0, abs=0.08)
    # quotients never decrease (log-convexity)
    prev = -math.inf
    for p in range(0, 600):
        cur = seq.log_m(p)
        assert cur >= prev - 1e-12
        prev = cur


def test_explicit_head_and_tails():
    spec = ExplicitSpec(log_m=(0.0, 0.5, 1.0), tail_rule="arithmetic", tail_value=0.25)
    seq = make_sequence(spec)
    assert seq.log_m(1) == 0.5
    assert seq.log_m(3) == pytest.approx(1.25)
    assert seq.log_m(7) == pytest.approx(1.0 + 0.25 * 5)
    power = make_sequence(
        ExplicitSpec(log_m=(0.0, 0.5, 1.0), tail_rule="power", tail_value=2.0)
    )
    assert power.log_m(9) == pytest.approx(2.0 * math.log(10.0))


def test_explicit_log_M_is_cumulative():
    seq = make_sequence(
        ExplicitSpec(log_m=(0.1, 0.2, 0.7), tail_rule="power", tail_value=1.0)
    )
    for p in (1, 2, 3, 6, 40):
        direct = math.fsum(seq.log_m(j) for j in range(p))
        assert seq.log_M(p) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_spec_json_round_trip():
    specs = [
        {"kind": "gevrey", "s": 2.5},
        {"kind": "q_gevrey", "q": 3.0},
        {"kind": "example38"},
        {
            "kind": "explicit",
            "log_m": [0.0, 1.0],
            "tail": {"rule": "power", "exponent": 1.5},
        },
        {
            "kind": "derived",
            "op": "power",
            "s": 0.5,
            "base": {"kind": "example38"},
        },
    ]
    for data in specs:
        spec = spec_from_json(data)
        again = spec_from_json(spec_to_json(spec))
        assert again == spec


def test_spec_errors_name_the_field():
    with pytest.raises(ValidationError, match="'s'"):
        spec_from_json({"kind": "gevrey"})
    with pytest.raises(ValidationError, match="'q'"):
        spec_from_json({"kind": "q_gevrey", "q": 1.0})
    with pytest.raises(ValidationError, match="log_m"):
        spec_from_json({"kind": "explicit", "log_m": [], "tail": {"rule": "power", "exponent": 1.0}})
    with pytest.raises(ValidationError, match="kind"):
        spec_from_json({"kind": "nope"})
    with pytest.raises(ValidationError):
        spec_from_json(["not", "a", "dict"])
    deep = {"kind": "gevrey", "s": 1.0}
    for _ in range(MAX_DERIVED_DEPTH):
        deep = {"kind": "derived", "op": "hat", "base": deep}
    assert spec_from_json(deep).op == "hat"
    with pytest.raises(ValidationError, match="'base'"):
        spec_from_json({"kind": "derived", "op": "check", "base": deep})


def test_metadata_certificates():
    g = make_sequence(GevreySpec(s=1.0))
    assert g.certifies("lc") and g.certifies("mg") and g.certifies("snq")
    q = make_sequence(QGevreySpec(q=2.0))
    assert q.certifies("dc") and q.refutes("mg")
    assert q.metadata.get("borel_surjective") is True
    e = make_sequence(
        ExplicitSpec(log_m=(0.0,), tail_rule="power", tail_value=1.0)
    )
    assert not e.certifies("lc") and not e.refutes("lc")


def test_derive_hat_and_check_cancel():
    base = make_sequence(GevreySpec(s=1.5))
    hat = derive(base, "hat")
    # hat multiplies quotients by (p+1)
    assert hat.log_m(4) == pytest.approx(base.log_m(4) + math.log(5.0), rel=1e-13)
    back = derive(hat, "check")
    assert back.spec == base.spec
    assert back.log_M(10) == pytest.approx(base.log_M(10), rel=1e-13)
    # beyond the prefix the closed forms shift by log(p+1) and log p!
    check = derive(base, "check")
    for p in (10**7, 3 * 10**9):
        lp1, lfac = math.log(p + 1), math.lgamma(p + 1)
        assert hat.log_m_fast(p) == base.log_m_fast(p) + lp1
        assert check.log_m_fast(p) == base.log_m_fast(p) - lp1
        assert hat._big_M_fn(p) == base._big_M_fn(p) + lfac
        assert check._big_M_fn(p) == base._big_M_fn(p) - lfac


def test_derive_power_scales_and_composes():
    base = make_sequence(Example38Spec())
    half = derive(base, "power", s=0.5)
    assert half.log_M(50) == pytest.approx(0.5 * base.log_M(50), rel=1e-13)
    # power(power(X, 1/2), 2) collapses back to X
    restored = derive(half, "power", s=2.0)
    assert restored.spec == base.spec
    # closed forms beyond the prefix scale by s; example38 has no closed log M
    g = make_sequence(GevreySpec(s=1.5))
    g_half = derive(g, "power", s=0.5)
    for p in (10**7, 3 * 10**9):
        assert half.log_m_fast(p) == 0.5 * base.log_m_fast(p)
        assert g_half.log_m_fast(p) == 0.5 * g.log_m_fast(p)
        assert g_half._big_M_fn(p) == 0.5 * g._big_M_fn(p)
    assert half._big_M_fn is None
    profile = derive(derive(derive(base, "hat"), "power", s=0.5), "check").block_profile()
    assert (profile.scale, profile.shift) == (0.5, -0.5)
    with pytest.raises(ValidationError):
        derive(base, "power")
    with pytest.raises(ValidationError):
        derive(base, "frobnicate")


def test_dc_minorant_contained_and_bounded():
    base = make_sequence(GevreySpec(s=2.0))
    n = dc_minorant(base)
    for p in range(0, 60):
        # N <= M and n_p <= 2^(p+1)/(p+1)
        assert n.log_M(p) <= base.log_M(p) + 1e-12
        assert n.log_m(p) <= (p + 1) * math.log(2.0) - math.log(p + 1) + 1e-12


def test_sequence_from_json_builds_evaluator():
    seq = sequence_from_json({"kind": "gevrey", "s": 1.0})
    assert seq.log_M(6) == pytest.approx(math.lgamma(7.0), rel=1e-13)


@given(st.floats(min_value=0.05, max_value=8.0))
@settings(max_examples=30)
def test_gevrey_prefix_matches_closed_form(s):
    seq = make_sequence(GevreySpec(s=s))
    assert seq.log_M(37) == pytest.approx(s * math.lgamma(38.0), rel=1e-11)


@given(
    st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=12
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40)
def test_explicit_round_trip_and_prefix(log_m, step):
    spec = ExplicitSpec(log_m=tuple(log_m), tail_rule="arithmetic", tail_value=step)
    seq = make_sequence(spec)
    assert spec_from_json(spec_to_json(spec)) == spec
    total = math.fsum(seq.log_m(j) for j in range(len(log_m) + 5))
    assert seq.log_M(len(log_m) + 5) == pytest.approx(total, rel=1e-10, abs=1e-9)
