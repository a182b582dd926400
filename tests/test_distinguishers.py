import pytest

from chi2lab import (
    distinguish_from_bregman,
    distinguish_from_f_divergence,
    distinguish_from_jensen,
)


def test_f_equality_at_endpoints():
    for alpha in (0.0, 1.0):
        report = distinguish_from_f_divergence(alpha, 2, seed=1)
        assert report.equality
        assert report.max_residual <= 1e-9


def test_f_witness_at_half():
    report = distinguish_from_f_divergence(0.5, 2, budget=1000, seed=1)
    assert not report.equality
    assert report.witness is not None
    assert report.witness["gap"] >= 0.01
    assert report.samples_used <= 1000


def test_f_budget_validation():
    with pytest.raises(ValueError):
        distinguish_from_f_divergence(0.5, 2, budget=0)


def test_bregman_scalar_value():
    report = distinguish_from_bregman(0.5)
    # g(1) = d (t-1)^2 / 1 = 2 at t = 2, d = 2
    assert abs(report.values[1] - 2.0) <= 1e-12


def test_bregman_fit_residual_is_macroscopic():
    report = distinguish_from_bregman(0.25)
    assert report.fit_residual >= 0.1
    assert report.non_quadratic
    assert report.control_residual <= 1e-10


def test_jensen_asymmetry_witness():
    for d in (2, 3):
        report = distinguish_from_jensen(0.5, d)
        assert abs(report.forward - 4.0) <= 1e-9
        assert abs(report.backward - 4.0 / 3.0) <= 1e-9
        assert abs(report.gap - 8.0 / 3.0) <= 1e-9
        assert report.jensen_gap == 0.0
