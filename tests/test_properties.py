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
        # fails on each trial whose divergence lies above its own order's
        # median; every order's row is read off the same n inputs
        a, _ = psd_stack(d, rng, n)
        b, bs = pd_stack(d, rng, n)
        v = properties._chi2s(a, b, bs, alpha)
        assert v.shape == (3, n)
        return v <= np.median(v, axis=1, keepdims=True), v, \
            lambda k, t: properties._witness(a=a[t], b=b[t])

    monkeypatch.setattr(properties, "_PROPERTIES", (("injected", chi2_at_most_median),))
    reports = run_property_suite([0.0, 0.5, 1.0], [2, 3], 9, seed=4)
    obj = json.loads(json.dumps(reports_to_obj(reports)))
    assert obj["failures"] == 4 * len(reports)
    for row in obj["properties"]:
        assert row["failures"] == 4
        a = PsdOperator(matrix_from_obj(row["witness"]["a"]))
        b = PdOperator(matrix_from_obj(row["witness"]["b"]))
        # the failing trials hold the largest residuals, so the witness
        # replays the reported worst one at the report's own order
        replay = chi2(a, b, row["alpha"])
        assert abs(replay - row["worst_residual"]) <= 1e-12 * row["worst_residual"]


def test_witness_is_the_worst_failing_trial(monkeypatch):
    # a passing trial may hold the report's worst residual; the witness is
    # still the failing trial with the largest residual, in its own order's row
    def fails_per_order(rng, alpha, d, n):
        residual = np.tile(np.arange(n, dtype=float), (len(alpha), 1))
        fails = np.array([np.isin(np.arange(n), (2, 5)), np.isin(np.arange(n), (1, 3))])
        return ~fails, residual, lambda k, t: {"k": k, "t": t}

    monkeypatch.setattr(properties, "_PROPERTIES", (("injected", fails_per_order),))
    first, second = run_property_suite([0.5, 0.25], [2], 8, seed=0)
    assert first.failures == second.failures == 2
    assert first.worst_residual == second.worst_residual == 7.0
    assert first.witness == {"k": 0, "t": 5}
    assert second.witness == {"k": 1, "t": 3}


def test_each_report_reads_its_own_alpha_rows(monkeypatch):
    # the residual of every trial is its own alpha plus its dim, so a report
    # read from another (alpha, dim) row has the wrong worst residual
    def residual_is_alpha(rng, alpha, d, n):
        assert alpha.shape == (3, 1, 1) and n == 4
        return np.ones((3, n), dtype=bool), alpha[:, :, 0] + d + np.zeros(n), lambda k, t: {}

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


def test_a_report_does_not_depend_on_the_other_orders():
    # every order is checked on the same draws, one row of an order axis
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    together = run_property_suite(alphas, (2, 3), 6, seed=11)
    for a in alphas:
        alone = run_property_suite([a], (2, 3), 6, seed=11)
        block = [r for r in together if r.alpha == a]
        assert json.dumps(reports_to_obj(alone)) == json.dumps(reports_to_obj(block))


def test_each_group_samples_its_trials_once(monkeypatch):
    rows = []

    def counted(sampler):
        def sample(d, rng, n, **kwargs):
            rows.append((sampler.__name__, n))
            return sampler(d, rng, n, **kwargs)
        return sample

    for name in ("haar_stack", "hermitian_stack", "nonsingular_density_stack",
                 "pd_stack", "psd_stack", "unit_vector_stack"):
        monkeypatch.setattr(properties, name, counted(getattr(properties, name)))
    reports = run_property_suite([0.0, 0.25, 0.5, 0.75, 1.0], (2, 3), 7, seed=2)
    assert all(r.trials == 7 for r in reports)
    five = rows[:]
    assert {name for name, _ in five} == {
        "haar_stack", "hermitian_stack", "nonsingular_density_stack",
        "pd_stack", "psd_stack", "unit_vector_stack",
    }
    assert [n for _, n in five] == [7] * len(five)
    # five orders draw exactly what one order draws
    rows.clear()
    run_property_suite([0.5], (2, 3), 7, seed=2)
    assert rows == five


def test_non_integer_trials_and_dims_are_rejected():
    with pytest.raises(ValueError, match="2.5"):
        run_property_suite([0.5], [2], 2.5, seed=0)
    with pytest.raises(ValueError, match="2.7"):
        run_property_suite([0.5], [2.7], 2, seed=0)
    assert run_property_suite([0.5], [np.int64(2)], np.int64(2), seed=0)[0].trials == 2


def test_render_text_prints_distinct_orders_distinctly():
    reports = run_property_suite([0.001, 0.004, 0.999], [2], 2, seed=0)
    alphas = [line.split()[1] for line in render_text(reports).splitlines()[1:-1]]
    assert alphas == ["0.001", "0.004", "0.999"] * len(PROPERTY_NAMES)
