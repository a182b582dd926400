import numpy as np
import pytest

from chi2lab import PdOperator, chi2, chi2_shifted, eigh
from chi2lab.optimize import (
    ConeOptConfig,
    SphereOptConfig,
    infimum_over_pd,
    maximize_over_rank_one,
    maximize_over_states,
    minimize_over_rank_one,
)
from chi2lab.ensembles import random_nonsingular_density
from chi2lab.linalg import op_norm

CFG = SphereOptConfig(restarts=6, max_iters=400, seed=1)
CONE = ConeOptConfig(restarts=4, max_iters=400, seed=2)


def test_minimize_diagonal_case():
    d = PdOperator(np.diag([0.7, 0.3]))
    res = minimize_over_rank_one(lambda r: chi2_shifted(r, d, 0.25), 2, CFG)
    assert res.converged
    assert abs(res.value - 1 / 0.7) <= 1e-8
    assert abs(res.argopt.vector[0]) ** 2 >= 1.0 - 1e-6


def test_maximize_diagonal_case():
    d = PdOperator(np.diag([0.7, 0.3]))
    res = maximize_over_rank_one(lambda r: chi2_shifted(r, d, 0.25), 2, CFG)
    assert abs(res.value - 1 / 0.3) <= 1e-8
    assert abs(res.argopt.vector[1]) ** 2 >= 1.0 - 1e-6


def test_constant_objective():
    res = minimize_over_rank_one(lambda r: 4.25, 3, CFG)
    assert res.converged
    assert res.value == 4.25
    res = maximize_over_rank_one(lambda r: 4.25, 3, CFG)
    assert res.value == 4.25


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_extremal_values_match_eigensolver(alpha):
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        dens = random_nonsingular_density(d, rng)
        lam = eigh(dens).eigenvalues
        res_min = minimize_over_rank_one(lambda r: chi2_shifted(r, dens, alpha), d, CFG)
        res_max = maximize_over_rank_one(lambda r: chi2_shifted(r, dens, alpha), d, CFG)
        assert abs(res_min.value - 1 / lam[0]) <= 1e-7
        assert abs(res_max.value - 1 / lam[-1]) <= 1e-7


def test_determinism():
    rng = np.random.default_rng(5)
    dens = random_nonsingular_density(3, rng)
    r1 = minimize_over_rank_one(lambda r: chi2_shifted(r, dens, 0.5), 3, CFG)
    r2 = minimize_over_rank_one(lambda r: chi2_shifted(r, dens, 0.5), 3, CFG)
    assert r1.value == r2.value
    np.testing.assert_array_equal(r1.argopt.vector, r2.argopt.vector)
    # the free (cone) and the state-sphere geometries repeat bit for bit too
    b = PdOperator(np.diag([1.0, 0.5]))
    c = PdOperator(np.diag([2.0, 0.7]))
    runs = [infimum_over_pd(lambda x: chi2(x, b, 0.5) - chi2(x, c, 0.5), 2, CONE)
            for _ in range(2)]
    assert runs[0].value == runs[1].value
    assert (runs[0].boundary, runs[0].converged) == (runs[1].boundary, runs[1].converged)
    np.testing.assert_array_equal(runs[0].argmin.mat, runs[1].argmin.mat)
    states = [maximize_over_states(lambda x: chi2(x, b, 0.25), 2, CONE) for _ in range(2)]
    assert states[0].value == states[1].value
    assert states[0].converged == states[1].converged
    np.testing.assert_array_equal(states[0].state.mat, states[1].state.mat)


def test_config_validation():
    with pytest.raises(ValueError):
        SphereOptConfig(restarts=0)


def test_infimum_trace_difference_identity():
    b = PdOperator(np.eye(2))
    c = PdOperator(2 * np.eye(2))
    res = infimum_over_pd(lambda x: chi2(x, b, 0.5) - chi2(x, c, 0.5), 2, CONE)
    assert abs(res.value - (-2.0)) <= 1e-3
    assert res.boundary  # the infimum sits at the cone boundary


def test_infimum_equal_arguments_zero():
    b = PdOperator(np.diag([1.0, 0.5]))
    res = infimum_over_pd(lambda x: chi2(x, b, 0.25) - chi2(x, b, 0.25), 2, CONE)
    assert abs(res.value) <= 1e-6


def test_infimum_second_identity():
    b = PdOperator(np.diag([1.0, 1.0]))
    c = PdOperator(np.diag([2.0, 1.0]))
    res = infimum_over_pd(lambda x: chi2(x, b, 0.0) - chi2(x, c, 0.0), 2, CONE)
    assert abs(res.value - (-1.0)) <= 1e-3


def test_maximize_over_states_rank_one_extremal():
    half = PdOperator(np.eye(2) / 2)
    res = maximize_over_states(lambda x: chi2(x, half, 0.5), 2, CONE)
    x = res.state.mat
    assert op_norm(x @ x - x) <= 1e-5
    assert abs(res.state.trace() - 1.0) <= 1e-10


def test_maximize_over_states_cross_method():
    half = PdOperator(np.eye(2) / 2)
    st = maximize_over_states(lambda x: chi2(x, half, 0.0), 2, CONE)
    ro = maximize_over_rank_one(
        lambda r: chi2_shifted(r, half, 0.0) - 1.0, 2, CFG
    )
    assert abs(st.value - ro.value) <= 1e-6


def test_maximize_over_states_constant():
    res = maximize_over_states(lambda x: -3.5, 2, CONE)
    assert res.value == -3.5
