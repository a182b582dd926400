import json

import numpy as np
import pytest

from chi2lab import (
    PROPERTY_NAMES,
    PdOperator,
    PsdOperator,
    chi2,
    render_text,
    reports_to_obj,
    run_property_suite,
)
from chi2lab import properties
from chi2lab.ensembles import pd_stack, psd_stack
from chi2lab.matio import matrix_from_obj


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_property_suite([0.5], [2], 0, seed=0)


def test_dim_must_be_at_least_two():
    with pytest.raises(ValueError):
        run_property_suite([0.5], [1], 5, seed=0)


def test_small_run_zero_failures():
    reports = run_property_suite([0.0, 0.5, 1.0], [2, 3], 25, seed=7)
    assert len(reports) == len(PROPERTY_NAMES) * 3 * 2
    assert all(r.ok for r in reports)
    assert all(r.witness is None for r in reports)


def test_seeded_rerun_is_byte_identical():
    a = run_property_suite([0.25], [2], 10, seed=3)
    b = run_property_suite([0.25], [2], 10, seed=3)
    assert json.dumps(reports_to_obj(a)) == json.dumps(reports_to_obj(b))
    assert render_text(a) == render_text(b)


def test_render_text_shape():
    reports = run_property_suite([0.5], [2], 2, seed=0)
    text = render_text(reports)
    assert "total failures: 0" in text
    for name in PROPERTY_NAMES:
        assert name in text


def test_failing_property_serializes_a_replayable_witness(monkeypatch):
    def chi2_at_most_median(rng, alpha, d, n):
        # fails on each trial whose divergence lies above its alpha block's
        # median; the stack holds the three alpha blocks in turn
        a, _ = psd_stack(d, rng, n)
        b, bs = pd_stack(d, rng, n)
        v = properties._chi2s(a, b, bs, alpha)
        median = np.median(v.reshape(3, -1), axis=1).repeat(n // 3)
        return v <= median, v, lambda k: properties._witness(a=a[k], b=b[k])

    monkeypatch.setattr(properties, "_PROPERTIES", (("injected", chi2_at_most_median),))
    reports = run_property_suite([0.0, 0.5, 1.0], [2, 3], 9, seed=4)
    obj = json.loads(json.dumps(reports_to_obj(reports)))
    assert obj["failures"] == 4 * len(reports)
    for row in obj["properties"]:
        assert row["failures"] == 4
        a = PsdOperator(matrix_from_obj(row["witness"]["a"]))
        b = PdOperator(matrix_from_obj(row["witness"]["b"]))
        # the failing trials hold the largest residuals, so the witness
        # replays the reported worst one
        replay = chi2(a, b, row["alpha"])
        assert abs(replay - row["worst_residual"]) <= 1e-12 * row["worst_residual"]


def test_witness_is_the_worst_failing_trial(monkeypatch):
    # a passing trial may hold the block's worst residual; the witness is
    # still the failing trial with the largest residual
    def fails_on_two_and_five(rng, alpha, d, n):
        residual = np.arange(n, dtype=float)
        return ~np.isin(residual, (2.0, 5.0)), residual, lambda k: {"k": k}

    monkeypatch.setattr(properties, "_PROPERTIES", (("injected", fails_on_two_and_five),))
    (report,) = run_property_suite([0.5], [2], 8, seed=0)
    assert report.failures == 2
    assert report.worst_residual == 7.0
    assert report.witness == {"k": 5}


def test_each_report_reads_its_own_alpha_rows(monkeypatch):
    # the residual of every trial is its own alpha plus its dim, so a report
    # read from another (alpha, dim) block's rows has the wrong worst residual
    def residual_is_alpha(rng, alpha, d, n):
        assert alpha.shape == (n, 1)
        return np.ones(n, dtype=bool), alpha[:, 0] + d, lambda k: {}

    monkeypatch.setattr(properties, "_PROPERTIES", (
        ("first", residual_is_alpha), ("second", residual_is_alpha),
    ))
    alphas, dims = [0.75, 0.0, 0.5], [3, 2]
    reports = run_property_suite(alphas, dims, 4, seed=0)
    assert [(r.name, r.alpha, r.dim) for r in reports] == [
        (name, a, d) for name in ("first", "second") for a in alphas for d in dims
    ]
    for r in reports:
        assert r.trials == 4 and r.failures == 0
        assert r.worst_residual == r.alpha + r.dim
