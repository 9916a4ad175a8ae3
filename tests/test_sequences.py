"""Sequence constructors: spec parsing, evaluators, derivations."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import (
    DerivedSpec,
    EvaluationError,
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
from momentgate import sequences
from momentgate.cli import main
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
    near, far = seq.log_M_extended(np.array([300, 10**9])).tolist()
    assert near == pytest.approx(seq.log_M(300), rel=1e-12)
    assert far == pytest.approx(2.0 * math.lgamma(10**9 + 1), rel=1e-12)


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


def test_q_gevrey_quotient_reaches_the_search_cap():
    seq = make_sequence(QGevreySpec(q=2.0))
    got = seq.log_m_fast(np.array([2**60]))[0]
    assert got == (2 * 2**60 + 1) * math.log(2.0)
    # a quotient past the float range stays an EvaluationError
    with pytest.raises(EvaluationError, match="overflows"):
        seq.log_m(10**400)


def test_log_p1_is_math_log_on_int64_and_object_indices():
    rng = np.random.default_rng(5)
    # int64 to float rounds to nearest-even past 2^53, as math.log's int
    # conversion does
    p = np.concatenate((
        np.arange(2**53 - 64, 2**53 + 64),
        2 ** np.arange(1, 61) - 2,
        2 ** np.arange(61) - 1,
        2 ** np.arange(61),
        rng.integers(0, 2**60, 10_000),
    ))
    want = np.array([math.log(int(x) + 1) for x in p.tolist()])
    assert p.dtype == np.int64
    assert np.array_equal(sequences._log_p1(p).view(np.int64), want.view(np.int64))
    big = np.array([2**6561, 2**64, 5], dtype=object)
    assert sequences._log_p1(big).tolist() == [math.log(x + 1) for x in big.tolist()]


NO_CLOSED_FORM_SPECS = {
    "explicit": ExplicitSpec(log_m=(0.0, 0.5), tail_rule="arithmetic", tail_value=0.25),
    "dc_minorant": DerivedSpec("dc_minorant", GevreySpec(s=1.0)),
}


@pytest.mark.parametrize("spec", NO_CLOSED_FORM_SPECS.values(), ids=NO_CLOSED_FORM_SPECS.keys())
def test_no_closed_form_past_the_prefix_is_one_error(spec):
    from momentgate.sequences import BIG_INDEX_LIMIT

    seq = make_sequence(spec)
    assert seq._closed_m is None and seq._closed_M is None
    message = "no closed-form big-index quotient$"
    with pytest.raises(EvaluationError, match=message):
        seq.log_m(BIG_INDEX_LIMIT)
    with pytest.raises(EvaluationError, match=message):
        seq.log_m_fast(np.array([10]))
    # materialized indices still read the prefix
    seq.log_M(12)
    assert seq.log_m_fast(np.array([10]))[0] == seq.log_m(10)


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
    p = np.array([10**7, 3 * 10**9])
    lp1 = np.array([math.log(q + 1) for q in p.tolist()])
    lfac = np.array([math.lgamma(q + 1) for q in p.tolist()])
    assert np.array_equal(hat.log_m_fast(p), base.log_m_fast(p) + lp1)
    assert np.array_equal(check.log_m_fast(p), base.log_m_fast(p) - lp1)
    assert np.array_equal(hat.log_M_extended(p), base.log_M_extended(p) + lfac)
    assert np.array_equal(check.log_M_extended(p), base.log_M_extended(p) - lfac)


def test_spec_trees_are_kept_and_only_derive_collapses():
    # a report echoes its spec, so make_sequence builds hat(check(X)) as given
    spec = DerivedSpec(op="hat", base=DerivedSpec(op="check", base=GevreySpec(s=1.0)))
    kept = make_sequence(spec)
    assert kept.spec == spec and kept.name == "hat(check(gevrey(1)))"
    assert kept.metadata == {"mg": True}
    g = make_sequence(GevreySpec(s=1.0))
    collapsed = derive(derive(g, "check"), "hat")
    assert collapsed.spec == GevreySpec(s=1.0) and collapsed.name == "gevrey(1)"
    assert collapsed.metadata == g.metadata


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
    p = np.array([10**7, 3 * 10**9])
    assert np.array_equal(half.log_m_fast(p), 0.5 * base.log_m_fast(p))
    assert np.array_equal(g_half.log_m_fast(p), 0.5 * g.log_m_fast(p))
    assert np.array_equal(g_half.log_M_extended(p), 0.5 * g.log_M_extended(p))
    assert half._closed_M is None
    profile = derive(derive(derive(base, "hat"), "power", s=0.5), "check").block_profile()
    assert (profile.scale, profile.shift) == (0.5, -0.5)
    with pytest.raises(ValidationError):
        derive(base, "power")
    with pytest.raises(ValidationError):
        derive(base, "frobnicate")


def _walked_block_profile(spec):
    """The block profile by a walk over the spec tree: example38 is (1, 0),
    and each hat / check / power(s) maps (scale, shift) to (scale * k,
    shift * k + c) with k = s for power and 1 otherwise, c = +1, -1, 0."""
    if isinstance(spec, Example38Spec):
        return sequences.BlockProfile(scale=1.0, shift=0.0)
    if isinstance(spec, DerivedSpec) and spec.op in ("hat", "check", "power"):
        inner = _walked_block_profile(spec.base)
        if inner is None:
            return None
        scale = spec.s if spec.op == "power" else 1.0
        shift = {"hat": 1, "check": -1, "power": 0}[spec.op]
        return sequences.BlockProfile(scale=inner.scale * scale, shift=inner.shift * scale + shift)
    return None


def _profile_bits(profile):
    return None if profile is None else (profile.scale.hex(), profile.shift.hex())


_BLOCK_OPS = (("hat", None), ("check", None), ("power", 0.5), ("power", 3.0), ("dc_minorant", None))


def test_block_profile_is_composed_per_derivation():
    # every tree up to depth 3 over three bases, built from its spec and by
    # derive (which collapses check/hat and merges nested powers)
    def trees(spec, depth):
        yield spec
        if depth:
            for op, s in _BLOCK_OPS:
                yield from trees(DerivedSpec(op, spec, s), depth - 1)

    def derived(seq, spec):
        if not isinstance(spec, DerivedSpec):
            return seq
        base = derived(seq, spec.base)
        return dc_minorant(base) if spec.op == "dc_minorant" else derive(base, spec.op, spec.s)

    bases = (Example38Spec(), GevreySpec(s=1.5), DerivedSpec("dc_minorant", Example38Spec()))
    seen = 0
    for base in bases:
        root = make_sequence(base)
        for spec in trees(base, 3):
            built = make_sequence(spec)
            assert _profile_bits(built.block_profile()) == _profile_bits(_walked_block_profile(spec))
            chained = derived(root, spec)
            want = _walked_block_profile(chained.spec)
            assert _profile_bits(chained.block_profile()) == _profile_bits(want)
            seen += want is not None
    assert seen > 0
    ex38 = make_sequence(Example38Spec())
    collapsed = derive(derive(ex38, "hat"), "check")
    assert collapsed.spec == Example38Spec()
    assert _profile_bits(collapsed.block_profile()) == (1.0.hex(), 0.0.hex())
    merged = derive(derive(derive(ex38, "check"), "power", 0.5), "power", 3.0)
    assert merged.spec == DerivedSpec("power", DerivedSpec("check", Example38Spec()), 1.5)
    assert _profile_bits(merged.block_profile()) == (1.5.hex(), (-1.5).hex())
    for plain in (GevreySpec(s=1.5), QGevreySpec(q=2.0), DerivedSpec("hat", GevreySpec(s=1.0))):
        assert make_sequence(plain).block_profile() is None
    assert dc_minorant(ex38).block_profile() is None


def test_block_profile_boundaries_are_the_probed_block_ends():
    from momentgate.sequences import EX38_K, EX38_Q

    ends = sequences.BlockProfile(scale=0.5, shift=-1.0).boundaries()
    assert set(ends) == {EX38_K[j] for j in range(9)} | {EX38_Q[j] for j in range(9)}
    assert ends == sorted(ends) and len(ends) == 18


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


# ---------------------------------------------------------------------------
# array growth of the prefix against the term-by-term loop


def _reference_prefix(spec, count):
    """(log M_0 .. log M_(count-1), log m_0 .. log m_(count-2)) by
    prefix.append(prefix[p] + inc(p)), with each family's scalar increment;
    derived quotients read the base's reference prefix, as log_m does."""
    if isinstance(spec, GevreySpec):
        inc = lambda p: spec.s * math.log(p + 1)
    elif isinstance(spec, QGevreySpec):
        logq = math.log(spec.q)
        inc = lambda p: (2 * p + 1) * logq
    elif isinstance(spec, Example38Spec):
        from momentgate.sequences import example38_log_m as inc
    elif isinstance(spec, ExplicitSpec):
        values, n = spec.log_m, len(spec.log_m)
        if spec.tail_rule == "arithmetic":
            inc = lambda p: values[p] if p < n else values[-1] + spec.tail_value * (p - (n - 1))
        else:
            inc = lambda p: values[p] if p < n else spec.tail_value * math.log(p + 1)
    else:
        base = _reference_prefix(spec.base, count)[0]
        log_m = lambda p: base[p + 1] - base[p]
        if spec.op == "hat":
            inc = lambda p: log_m(p) + 1 * math.log(p + 1)
        elif spec.op == "check":
            inc = lambda p: log_m(p) + -1 * math.log(p + 1)
        elif spec.op == "power":
            inc = lambda p: spec.s * log_m(p)
        else:

            def inc(p):
                lp1 = math.log(p + 1)
                return min((p + 1) * math.log(2.0), lp1 + log_m(p)) - lp1

    prefix, incs = [0.0], []
    for p in range(count - 1):
        incs.append(inc(p))
        prefix.append(prefix[p] + incs[p])
    return prefix, incs


_HEAD = tuple(0.25 * math.sin(j) + 1e-3 * j for j in range(40_000))
_GEVREY = GevreySpec(s=1.5)
_DC = DerivedSpec("dc_minorant", GevreySpec(s=2.0))
GROWTH_SPECS = {
    "gevrey": _GEVREY,
    "q_gevrey": QGevreySpec(q=1.7),
    "example38": Example38Spec(),
    "arith_short_head": ExplicitSpec((0.3, -0.0, 0.7), "arithmetic", 0.01),
    "arith_long_head": ExplicitSpec(_HEAD, "arithmetic", 0.01),
    "power_short_head": ExplicitSpec((0.0, 0.5, 1.2, 1.1), "power", 0.8),
    "power_long_head": ExplicitSpec(_HEAD, "power", 0.8),
    "hat": DerivedSpec("hat", _GEVREY),
    "check": DerivedSpec("check", QGevreySpec(q=1.7)),
    "power": DerivedSpec("power", _GEVREY, s=0.6),
    "dc_minorant": _DC,
    "power_hat": DerivedSpec("power", DerivedSpec("hat", _GEVREY), s=0.6),
    "hat_dc_minorant": DerivedSpec("hat", _DC),
}
RAGGED_CHUNKS = (1, 2, 17, 4097, 30_001)


@pytest.mark.parametrize("spec", GROWTH_SPECS.values(), ids=GROWTH_SPECS.keys())
def test_array_growth_matches_sequential_loop(spec):
    total = 1 + sum(RAGGED_CHUNKS)
    prefix, incs = _reference_prefix(spec, total)
    ragged = make_sequence(spec)
    count = 1
    for chunk in RAGGED_CHUNKS:
        count += chunk
        ragged.log_M(count - 1)
        assert len(ragged._prefix) == count
    one_shot = make_sequence(spec)
    one_shot.log_M(total - 1)
    assert len(one_shot._prefix) == total
    want = [v.hex() for v in prefix]
    assert [v.hex() for v in ragged._prefix] == want
    assert [v.hex() for v in one_shot._prefix] == want
    # one-ulp differences in an increment (np.log for math.log, say) can
    # vanish in the rounding of the sums, so compare the increments too
    got = one_shot.inc_array(0, total - 1).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in incs]


def test_example38_increments_match_scalar_near_block_edges():
    from momentgate.numerics import HARMONIC_TABLE_LIMIT
    from momentgate.sequences import BIG_INDEX_LIMIT, EX38_K, EX38_Q, example38_log_m

    seq = make_sequence(Example38Spec())
    edges = [x for x in EX38_K + EX38_Q if x < BIG_INDEX_LIMIT] + [HARMONIC_TABLE_LIMIT]
    windows = [(0, 600)] + [(max(0, x - 6), x + 7) for x in edges]
    for lo, hi in windows:
        want = [example38_log_m(p).hex() for p in range(lo, hi)]
        assert [v.hex() for v in seq.inc_array(lo, hi).tolist()] == want


def test_log_M_extended_names_the_first_index_past_the_limit():
    seq = make_sequence(Example38Spec())
    with pytest.raises(EvaluationError, match="^index 2000001 exceeds"):
        seq.log_M_extended(np.array([1_999_990, 2_000_005, 2_000_001]))
    assert len(seq._prefix) == 1  # refused before growing anything


# a JSON integer literal of 400 digits: an int that no float can hold
HUGE = 10**400


@pytest.mark.parametrize(
    "data, field",
    [
        ({"kind": "gevrey", "s": HUGE}, "'s'"),
        ({"kind": "q_gevrey", "q": HUGE}, "'q'"),
        ({"kind": "explicit", "log_m": [0.0], "tail": {"rule": "arithmetic", "step": HUGE}}, "'step'"),
        ({"kind": "explicit", "log_m": [0.0], "tail": {"rule": "power", "exponent": HUGE}}, "'exponent'"),
        ({"kind": "explicit", "log_m": [0.0, HUGE], "tail": {"rule": "power", "exponent": 1}}, "'log_m[1]'"),
        ({"kind": "derived", "op": "power", "s": HUGE, "base": {"kind": "example38"}}, "'s'"),
    ],
    ids=["s", "q", "step", "exponent", "log_m", "derived_s"],
)
def test_int_past_the_float_range_is_a_field_error(capsys, data, field):
    with pytest.raises(ValidationError, match=re.escape(field + " must be a finite number")):
        spec_from_json(data)
    assert main(["analyze", json.dumps(data)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and field in err and "Traceback" not in err


def test_log_m_refuses_booleans():
    data = {"kind": "explicit", "log_m": [True, False], "tail": {"rule": "power", "exponent": 1.0}}
    with pytest.raises(ValidationError, match="'log_m\\[0\\]'"):
        spec_from_json(data)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ExplicitSpec((), "power", 1.0), "'log_m'"),
        (lambda: ExplicitSpec((0.0,), "geometric", 1.0), "'tail.rule'"),
        (lambda: DerivedSpec("flip", GevreySpec(1.0)), "'op'"),
    ],
    ids=["empty_head", "unknown_tail_rule", "unknown_op"],
)
def test_specs_built_in_python_are_checked(build, field):
    with pytest.raises(ValidationError, match=field):
        build()


@pytest.mark.parametrize(
    "build",
    [lambda: GevreySpec(math.nan), lambda: GevreySpec(math.inf), lambda: GevreySpec(True),
     lambda: QGevreySpec(math.inf)],
    ids=["gevrey_nan", "gevrey_inf", "gevrey_bool", "q_gevrey_inf"],
)
def test_non_finite_and_bool_parameters_are_refused(build):
    with pytest.raises(ValidationError, match="must be a finite number"):
        build()


def test_numpy_scalar_parameters_still_build():
    g, q = GevreySpec(np.float64(2.0)), QGevreySpec(np.int64(2))
    assert (g.s, q.q) == (2.0, 2.0)
    assert make_sequence(g).log_m(3) == make_sequence(GevreySpec(2.0)).log_m(3)


# ints past the float range, also drawn on their own below
_BIG = st.sampled_from([HUGE, -HUGE, 2**1024])
_ODD_VALUES = st.one_of(
    _BIG,
    st.sampled_from([1e300, -1e300, 1e-300, -1e-300, -0.0, 0.0, 0.5, 1.0]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
# valid in every numeric field
_GOOD = st.one_of(st.floats(min_value=1.01, max_value=4.0), st.integers(2, 4))
_EXTRA_KEYS = {"extra": _ODD_VALUES}


@st.composite
def _json_specs(draw):
    """JSON-like trees over every spec kind: odd values in every field,
    unknown keys, and derivation chains up to and past MAX_DERIVED_DEPTH.
    Odd numbers and odd structure are switched on separately, so that an
    odd number is often reached through a valid structure, and valid specs
    of every kind and depth come up too."""
    odd_fields, odd_shape = draw(st.sampled_from([(a, b) for a in (False, True) for b in (False, True)]))
    field = st.one_of(_GOOD, _BIG, _ODD_VALUES) if odd_fields else _GOOD
    rules = st.sampled_from(["arithmetic", "power"])
    tail = st.fixed_dictionaries({"rule": rules, "step": field, "exponent": field}, optional=_EXTRA_KEYS)
    head = st.lists(field, min_size=1, max_size=4)
    leaves = [
        st.fixed_dictionaries({"kind": st.just("gevrey"), "s": field}, optional=_EXTRA_KEYS),
        st.fixed_dictionaries({"kind": st.just("q_gevrey"), "q": field}, optional=_EXTRA_KEYS),
        st.fixed_dictionaries({"kind": st.just("example38")}, optional=_EXTRA_KEYS),
        st.fixed_dictionaries({"kind": st.just("explicit"), "log_m": head, "tail": tail}, optional=_EXTRA_KEYS),
    ]
    ops = st.sampled_from(["hat", "check", "power", "dc_minorant"])
    if odd_shape:
        rules = st.one_of(rules, st.just("geometric"), _ODD_VALUES)
        tail = st.one_of(
            st.fixed_dictionaries({"rule": rules}, optional={"step": field, "exponent": field, **_EXTRA_KEYS}),
            _ODD_VALUES,
        )
        leaves[3] = st.fixed_dictionaries(
            {"kind": st.just("explicit")},
            optional={"log_m": st.one_of(st.lists(field, max_size=4), _ODD_VALUES), "tail": tail},
        )
        leaves += [st.fixed_dictionaries({}, optional={"kind": _ODD_VALUES, **_EXTRA_KEYS}), _ODD_VALUES]
        ops = st.one_of(ops, st.just("flip"), _ODD_VALUES)
    spec = draw(st.one_of(leaves))
    layer = st.fixed_dictionaries(
        {"kind": st.just("derived"), "op": ops, "s": field}, optional=_EXTRA_KEYS
    )
    layers = draw(st.lists(layer, max_size=2))
    # a long chain repeats one drawn layer below the others
    deep = draw(st.sampled_from([0, 0, 0, MAX_DERIVED_DEPTH - 2, MAX_DERIVED_DEPTH - 1]))
    if deep:
        layers += [draw(layer)] * deep
    for top in reversed(layers):
        spec = {**top, "base": spec}
    return spec


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_json_specs())
def test_spec_from_json_returns_a_round_tripping_spec_or_a_validation_error(data):
    try:
        spec = spec_from_json(data)
    except ValidationError:
        return
    text = json.dumps(spec_to_json(spec), allow_nan=False)
    assert spec_from_json(json.loads(text)) == spec
