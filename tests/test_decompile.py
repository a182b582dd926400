import json

import numpy as np
import pytest

from chi2lab import (
    ConjugationMap,
    PdOperator,
    preserver_decompile,
)
from chi2lab.ensembles import haar_unitary
from chi2lab.linalg import op_norm


def test_identity_map():
    report = preserver_decompile(lambda a: a, 2, 0.5)
    assert report.ok
    assert report.recovered.kind == "unitary"
    c = np.trace(report.recovered.u) / abs(np.trace(report.recovered.u))
    assert op_norm(report.recovered.u - c * np.eye(2)) <= 1e-7
    assert report.verification_residual <= 1e-7
    assert report.query_count > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
def test_conjugation_round_trip(d, kind):
    rng = np.random.default_rng(3 * d + (kind == "antiunitary"))
    truth = ConjugationMap(haar_unitary(d, rng), kind)
    report = preserver_decompile(truth.as_preserver(), d, 0.25)
    assert report.ok
    assert report.recovered.kind == kind
    assert report.verification_residual <= 1e-6
    assert report.scale_consistency_residual <= 1e-5
    assert report.orthogonality_pass


def test_trace_violating_map_flagged_at_stage_one():
    report = preserver_decompile(lambda a: PdOperator(2 * a.mat), 2, 0.5)
    assert "trace" in report.failures
    assert not report.ok


def test_idempotence_on_recovered_map():
    rng = np.random.default_rng(8)
    truth = ConjugationMap(haar_unitary(2, rng), "unitary")
    first = preserver_decompile(truth.as_preserver(), 2, 0.5)
    second = preserver_decompile(first.recovered.as_preserver(), 2, 0.5)
    assert second.ok
    assert second.recovered.kind == "unitary"
    # same conjugation up to a global phase
    m = second.recovered.u @ first.recovered.u.conj().T
    c = np.trace(m) / abs(np.trace(m))
    assert op_norm(m - c * np.eye(2)) <= 1e-6


def test_report_serializes_to_json():
    report = preserver_decompile(lambda a: a, 2, 0.5, seed=1)
    obj = json.loads(report.to_json())
    assert obj["kind"] == "unitary"
    assert obj["u"]["dim"] == 2
    assert len(obj["u"]["entries"]) == 4
    assert obj["failures"] == []
    for key in (
        "trace_preservation_residual",
        "orthogonality_residual",
        "transition_residual",
        "scale_consistency_residual",
        "verification_residual",
        "query_count",
    ):
        assert key in obj


def test_seeded_runs_are_deterministic():
    rng = np.random.default_rng(5)
    truth = ConjugationMap(haar_unitary(2, rng), "unitary")
    r1 = preserver_decompile(truth.as_preserver(), 2, 0.5, seed=9)
    r2 = preserver_decompile(truth.as_preserver(), 2, 0.5, seed=9)
    assert r1.to_json() == r2.to_json()
