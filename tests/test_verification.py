"""Verification batteries: the fast suites end to end."""

import pytest

from momentgate import SUITES, ValidationError, run_suite


def test_suite_registry():
    assert set(SUITES) == {"inversion", "moments", "gfun", "example38"}
    with pytest.raises(ValidationError):
        run_suite("bogus")
    # a suite takes only the settings it reads
    with pytest.raises(ValidationError):
        run_suite("inversion", horizon=5)


def test_inversion_suite_passes():
    rep = run_suite("inversion", seed=0)
    assert rep.ok
    assert rep.failures == ()
    names = [c.name for c in rep.checks]
    assert "round_trip_exact" in names and "phase_round_trip_exact" in names


def test_inversion_suite_seed_changes_jets_not_outcome():
    a = run_suite("inversion", seed=1)
    b = run_suite("inversion", seed=2)
    assert a.ok and b.ok


def test_moments_suite_passes():
    rep = run_suite("moments")
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert by_name["moment_closed_form"].measured <= 1e-9
    assert by_name["laplace_second_derivative"].measured <= 1e-4
    assert by_name["origin_derivative_identity"].measured <= 1e-6
    assert not by_name["lambda_fit_rejects_cubed_factorial"].measured is None


def test_example38_suite_passes():
    rep = run_suite("example38", horizon=100_000, tol=0.05)
    assert rep.ok
    by_name = {c.name: c for c in rep.checks}
    assert abs(by_name["omega_estimate"].measured - 2.5) <= 0.05
    assert by_name["gamma_bracket"].ok


def test_suite_report_json():
    rep = run_suite("moments")
    assert rep.params == {}  # its quadratures run to moments' own tolerances
    data = rep.to_json()
    assert data["suite"] == "moments"
    assert data["schema"] == 1
    assert all("ok" in c for c in data["checks"])
