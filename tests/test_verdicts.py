"""Mapping verdicts: criteria, directions, vacuous and conditional paths."""

import dataclasses
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentgate import verdicts
from momentgate.conditions import SeriesReport, Verdict
from momentgate import (
    Example38Spec,
    ExplicitSpec,
    GevreySpec,
    InternalInvariantError,
    MapStatus,
    QGevreySpec,
    Status,
    classify,
)


def test_small_gevrey_is_injective_not_surjective():
    rep = classify(GevreySpec(s=0.5))
    assert rep.injective.status is MapStatus.HOLDS
    assert rep.surjective.status is MapStatus.FAILS
    assert rep.origin_injective.status is MapStatus.HOLDS
    assert rep.origin_surjective.status is MapStatus.FAILS
    assert rep.any_definite


def test_large_gevrey_is_surjective_not_injective():
    rep = classify(GevreySpec(s=2.0))
    assert rep.injective.status is MapStatus.FAILS
    assert rep.surjective.status is MapStatus.HOLDS
    assert rep.surjective.direction == "equivalence"
    assert rep.origin_surjective.status is MapStatus.HOLDS


def test_gevrey_boundary_case():
    # s = 1 sits on the divergence side of the injectivity series
    rep = classify(GevreySpec(s=1.0))
    assert rep.injective.status is MapStatus.HOLDS
    assert rep.surjective.status is MapStatus.FAILS


@pytest.mark.parametrize("s", [1.01, 1.02, 1.03])
def test_gamma_bracket_from_one_corroborates_the_holding_check(s):
    # the bracket's lower end is a beta whose probe held, so [1, 1.03125]
    # reads (gamma_1) as holding, as the direct check finds
    rep = classify(GevreySpec(s=s), horizon=4096)
    assert (rep.gamma.lower, rep.gamma.upper) == (1.0, 1.03125)
    for verdict in (rep.surjective, rep.origin_surjective):
        assert verdict.trace["gamma_1"].status is Status.HOLDS_AT_HORIZON
        assert verdict.trace["corroboration"] == "gamma bracket agrees with the direct check"
        assert not any("corroborate" in note for note in verdict.notes)


def test_gamma_bracket_around_one_claims_nothing(monkeypatch):
    gamma_index = verdicts.gamma_index

    def straddling(seq, horizon, tol):
        return dataclasses.replace(gamma_index(seq, horizon=horizon, tol=tol), lower=0.75, upper=1.25)

    monkeypatch.setattr(verdicts, "gamma_index", straddling)
    for s in (0.5, 2.0):  # the direct check fails, then holds
        rep = classify(GevreySpec(s=s), horizon=256)
        for verdict in (rep.surjective, rep.origin_surjective):
            assert verdict.trace["corroboration"] == "gamma bracket does not resolve beta = 1"
            assert not any("corroborate" in note for note in verdict.notes)


def test_q_gevrey_surjective_without_mg():
    rep = classify(QGevreySpec(q=2.0))
    assert rep.hypotheses["mg"].status.value == "fails"
    assert rep.surjective.status is MapStatus.HOLDS
    assert rep.surjective.direction == "equivalence"
    # without (mg) the equivalence leans on the constructor certificate
    assert "Rem 4.9" in rep.surjective.citations
    assert math.isinf(rep.gamma.upper)


def test_example38_half_power_neither():
    spec = {"kind": "derived", "op": "power", "s": 0.5, "base": {"kind": "example38"}}
    from momentgate import spec_from_json

    rep = classify(spec_from_json(spec), horizon=100_000)
    assert rep.injective.status is MapStatus.FAILS
    assert rep.surjective.status is MapStatus.FAILS
    assert rep.gamma.lower <= 1.0 <= rep.gamma.upper + 1e-12


def test_constant_sequence_vacuous_origin_pair():
    # M = 1 keeps (lc) but loses (nq): the origin classes collapse to {0}
    rep = classify(ExplicitSpec(log_m=(0.0,), tail_rule="arithmetic", tail_value=0.0))
    assert rep.origin_injective.status is MapStatus.VACUOUS
    assert rep.origin_surjective.status is MapStatus.VACUOUS
    assert "Rem 4.5" in rep.origin_injective.citations
    assert rep.any_definite


def test_non_convex_all_conditional():
    log_m = tuple(0.5 + 0.45 * math.sin(2.2 * p) for p in range(40))
    rep = classify(ExplicitSpec(log_m=log_m, tail_rule="power", tail_value=0.0))
    for v in rep.verdicts:
        assert v.status is MapStatus.CONDITIONAL
    assert not rep.any_definite
    assert any("lc" in note for note in rep.injective.notes)


def test_classify_evaluates_each_criterion_once(monkeypatch):
    # the origin pair reuses the half-line series and beta = 1 check
    calls = []
    series = verdicts.classify_power_series
    gamma_beta = verdicts.check_gamma_beta

    def counted_series(seq, horizon, alpha, beta):
        calls.append(("series", alpha, beta))
        return series(seq, horizon, alpha=alpha, beta=beta)

    def counted_gamma_beta(seq, beta, horizon):
        calls.append(("gamma_beta", beta))
        return gamma_beta(seq, beta, horizon=horizon)

    monkeypatch.setattr(verdicts, "classify_power_series", counted_series)
    monkeypatch.setattr(verdicts, "check_gamma_beta", counted_gamma_beta)
    rep = classify(GevreySpec(s=0.5), horizon=256)
    assert calls.count(("series", 0.5, 2.0)) == 1
    assert calls.count(("gamma_beta", 1.0)) == 1
    assert rep.injective.status is MapStatus.HOLDS

    # a beta = 1 check forced to pass makes the stieltjes pair bijective:
    # the invariant raises and carries the report payload
    def forced_gamma_beta(seq, beta, horizon):
        verdict = gamma_beta(seq, beta, horizon=horizon)
        return dataclasses.replace(verdict, status=Status.HOLDS_AT_HORIZON)

    monkeypatch.setattr(verdicts, "check_gamma_beta", forced_gamma_beta)
    with pytest.raises(InternalInvariantError, match="never-bijective") as err:
        classify(GevreySpec(s=0.5), horizon=256)
    assert "'schema'" in str(err.value)


def test_report_json_shape_and_determinism():
    rep = classify(GevreySpec(s=1.5))
    data = rep.to_json()
    assert data["schema"] == 1
    assert set(data["verdicts"]) == {
        "injective",
        "surjective",
        "origin_injective",
        "origin_surjective",
    }
    assert set(data["indices"]) == {"gamma", "omega"}
    # canonical dumps of two fresh runs must agree byte for byte
    a = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    b = json.dumps(
        classify(GevreySpec(s=1.5)).to_json(),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    assert a == b


def test_never_bijective_on_stock_families():
    for spec in (
        GevreySpec(s=0.5),
        GevreySpec(s=1.0),
        GevreySpec(s=3.0),
        QGevreySpec(q=2.0),
        Example38Spec(),
    ):
        rep = classify(spec)
        assert not (
            rep.injective.status is MapStatus.HOLDS
            and rep.surjective.status is MapStatus.HOLDS
        )
        assert not (
            rep.origin_injective.status is MapStatus.HOLDS
            and rep.origin_surjective.status is MapStatus.HOLDS
        )


@given(
    st.floats(min_value=0.05, max_value=1.2),
    st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=10, deadline=None)
def test_never_bijective_random_two_slope(e1, de):
    # convex quotient profile: slope e1 then e1 + de, power tail
    e2 = e1 + de
    k = 10
    head = [e1 * math.log(p + 1) for p in range(k)]
    head += [head[k - 1] + e2 * (math.log(p + 1) - math.log(k)) for p in range(k, 24)]
    rep = classify(
        ExplicitSpec(log_m=tuple(head), tail_rule="power", tail_value=e2),
        horizon=2048,
    )
    assert not (
        rep.injective.status is MapStatus.HOLDS
        and rep.surjective.status is MapStatus.HOLDS
    )


def test_default_auxiliary_checks_once_per_horizon():
    # the stock gevrey(2) checks are computed once per horizon and reused;
    # each report gets its own copy of them
    def canonical(rep):
        return json.dumps(rep.to_json(), sort_keys=True, separators=(",", ":"), allow_nan=False)

    spec = GevreySpec(s=1.5)
    memo = verdicts._default_aux_hypotheses
    memo.cache_clear()
    first = classify(spec, 4096)
    first_bytes = canonical(first)
    first.hypotheses["A:nq"].diagnostics["series"] = "tampered"
    first.hypotheses["A:wlc"].diagnostics.clear()
    classify(spec, 300)
    again = classify(spec, 4096)
    assert memo.cache_info().hits == 1 and memo.cache_info().misses == 2
    assert canonical(again) == first_bytes


def _subtrees_with(tree, key):
    """Every dict in a JSON tree that has `key`, depth first."""
    if isinstance(tree, dict):
        if key in tree:
            yield tree
        for v in tree.values():
            yield from _subtrees_with(v, key)
    elif isinstance(tree, list):
        for v in tree:
            yield from _subtrees_with(v, key)


def test_results_convert_once_when_serialized(monkeypatch):
    # classify keeps results as objects; report.to_json() converts each one
    # exactly as often as it appears in the output
    converted = {SeriesReport: Counter(), Verdict: Counter()}
    for cls, seen in converted.items():
        def counted(self, _to_json=cls.to_json, _seen=seen):
            out = _to_json(self)
            _seen[json.dumps(out, sort_keys=True)] += 1
            return out

        monkeypatch.setattr(cls, "to_json", counted)
    rep = classify(GevreySpec(s=1.5), horizon=4096)
    assert not any(converted.values())
    data = rep.to_json()
    for cls, key in ((SeriesReport, "partial_sum_trace"), (Verdict, "condition")):
        appears = Counter(json.dumps(t, sort_keys=True) for t in _subtrees_with(data, key))
        assert appears and converted[cls] == appears
