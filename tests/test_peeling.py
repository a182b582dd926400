from itertools import combinations

import numpy as np
import pytest

from chi2lab import (
    DivergenceOracle,
    PdOperator,
    RankOneProjection,
    ReconstructionError,
    chi2_shifted,
    eigh,
    rank_one_query_oracle,
    spectral_peel,
)
from chi2lab import peeling
from chi2lab.cli import DEFAULT_ALPHAS
from chi2lab.ensembles import haar_unitary, random_nonsingular_density
from chi2lab.linalg import op_norm


def _rel_err(spec, hidden):
    return op_norm(spec.reassemble() - hidden.mat) / op_norm(hidden.mat)


def _budget(d):
    m = d * (d + 1) // 2
    return 2 * m * m


def test_peel_diagonal_two_level():
    d = PdOperator(np.diag([0.7, 0.3]))
    spec = spectral_peel(rank_one_query_oracle(d, 0.5), 2, 0.5)
    np.testing.assert_allclose(spec.eigenvalues, [0.7, 0.3], atol=1e-6)
    np.testing.assert_allclose(spec.projections[0], np.diag([1.0, 0.0]), atol=1e-5)
    np.testing.assert_allclose(spec.projections[1], np.diag([0.0, 1.0]), atol=1e-5)


def _check_identity_over(d, alpha):
    hidden = PdOperator(np.eye(d) / d)
    spec = spectral_peel(rank_one_query_oracle(hidden, alpha), d, alpha)
    assert spec.multiplicities == (d,)
    assert abs(spec.eigenvalues[0] - 1.0 / d) <= 1e-8
    np.testing.assert_allclose(spec.projections[0], np.eye(d), atol=1e-6)


def test_peel_degenerate_identity():
    _check_identity_over(2, 0.25)


def test_peel_degenerate_identity_three_level():
    _check_identity_over(3, 0.75)


def test_peel_haar_rotated_three_level():
    u = haar_unitary(3, np.random.default_rng(4))
    mat = u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T
    d = PdOperator((mat + mat.conj().T) / 2)
    spec = spectral_peel(rank_one_query_oracle(d, 0.5), 3, 0.5)
    assert op_norm(spec.reassemble() - d.mat) <= 1e-5
    spec.validate(d.mat, rtol=1e-5)


def test_peel_density_trace_normalization():
    rng = np.random.default_rng(9)
    dens = random_nonsingular_density(3, rng)
    spec = spectral_peel(rank_one_query_oracle(dens, 0.0), 3, 0.0)
    total = sum(lam * m for lam, m in zip(spec.eigenvalues, spec.multiplicities))
    assert abs(total - 1.0) <= 1e-5


def test_peel_matches_eigh_clustering():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        dens = random_nonsingular_density(d, rng)
        reference = eigh(dens)
        spec = spectral_peel(rank_one_query_oracle(dens, 0.5), d, 0.5)
        assert spec.multiplicities == reference.multiplicities
        np.testing.assert_allclose(spec.eigenvalues, reference.eigenvalues, atol=1e-6)


@pytest.mark.parametrize("d, queries", [(2, 18), (3, 72), (6, 882)])
def test_peel_query_count_is_pinned(d, queries):
    rng = np.random.default_rng(40 + d)
    for alpha in (0.0, 0.5, 1.0):
        oracle = rank_one_query_oracle(random_nonsingular_density(d, rng), alpha)
        spectral_peel(oracle, d, alpha)
        assert oracle.count == queries <= _budget(d)


def test_peel_repeats_bit_for_bit():
    hidden = random_nonsingular_density(4, np.random.default_rng(12))
    runs = []
    for _ in range(2):
        oracle = rank_one_query_oracle(hidden, 0.25, noise_sigma=1e-9, seed=5)
        runs.append((spectral_peel(oracle, 4, 0.25), oracle.count))
    (a, count_a), (b, count_b) = runs
    assert count_a == count_b
    assert a.w.tobytes() == b.w.tobytes()
    assert a.v.tobytes() == b.v.tobytes()


def test_peel_d16_within_budget():
    d = 16
    hidden = random_nonsingular_density(d, np.random.default_rng(16))
    oracle = rank_one_query_oracle(hidden, 0.75)
    spec = spectral_peel(oracle, d, 0.75)
    assert oracle.count <= _budget(d)
    assert _rel_err(spec, hidden) <= 1e-10


@pytest.mark.parametrize("sigma", [1e-9, 1e-7, 1e-5])
def test_peel_error_scales_with_noise(sigma):
    rng = np.random.default_rng(77)
    for k, alpha in enumerate(DEFAULT_ALPHAS):
        hidden = random_nonsingular_density(6, rng)
        oracle = rank_one_query_oracle(hidden, alpha, noise_sigma=sigma, seed=k)
        spec = spectral_peel(oracle, 6, alpha)
        assert _rel_err(spec, hidden) <= 50 * sigma


def test_peel_rejects_nonpositive_values():
    oracle = DivergenceOracle(lambda r: -1.0)
    with pytest.raises(ReconstructionError):
        spectral_peel(oracle, 2, 0.5)


def test_peel_rejects_nonfinite_values():
    oracle = DivergenceOracle(lambda r: float("nan"))
    with pytest.raises(ReconstructionError):
        spectral_peel(oracle, 3, 0.5)


@pytest.mark.parametrize("alpha", DEFAULT_ALPHAS)
def test_query_landscape_has_no_spurious_minimum(alpha):
    # over the eigen-weights p of a unit vector, q = (a.p)(b.p) with
    # a_i = l_i^-alpha and b_i = l_i^(alpha-1), both non-increasing in l
    rng = np.random.default_rng(int(100 * alpha) + 3)
    for d in (2, 3, 4, 6):
        hidden = random_nonsingular_density(d, rng)
        spec = eigh(hidden)
        lam = spec.w
        a, b = lam ** -alpha, lam ** (alpha - 1.0)

        def log_q(p):
            return np.log(a @ p) + np.log(b @ p)

        for _ in range(20):
            p = rng.dirichlet(np.ones(d))
            v = spec.v @ (np.sqrt(p) * np.exp(2j * np.pi * rng.random(d)))
            q = chi2_shifted(RankOneProjection(v), hidden, alpha)
            assert abs(q - np.exp(log_q(p))) <= 1e-12 * q
            p2 = rng.dirichlet(np.ones(d))
            assert log_q((p + p2) / 2) >= (log_q(p) + log_q(p2)) / 2 - 1e-12
        # from the vertex of eigenvalue l_j, moving weight toward a larger
        # eigenvalue l_i strictly lowers q: only the top vertex is a minimum
        for j in range(1, d):
            for i in range(j):
                slope = (a[i] - a[j]) / a[j] + (b[i] - b[j]) / b[j]
                assert slope < 0.0


def _run(hidden, d, sigma):
    oracle = rank_one_query_oracle(hidden, 0.25, noise_sigma=sigma, seed=3)
    spec = spectral_peel(oracle, d, 0.25)
    return spec.w.tobytes(), spec.v.tobytes(), oracle.count


@pytest.mark.parametrize("d", [2, 3, 6])
def test_cold_and_warm_probes_give_the_same_bytes(d):
    hidden = random_nonsingular_density(d, np.random.default_rng(60 + d))
    for sigma in (0.0, 1e-9):
        peeling._probes.cache_clear()
        cold = _run(hidden, d, sigma)
        warm = _run(hidden, d, sigma)
        assert cold == warm
        assert cold[2] == _budget(d)


def test_probe_cache_keeps_only_the_latest_design():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        spectral_peel(rank_one_query_oracle(random_nonsingular_density(d, rng), 0.5), d, 0.5)
    assert peeling._probes.cache_info().currsize == 1


def _probe_loop(d):
    """Reference: the probe vectors in the order of the nested subset loop."""
    vectors = []
    for s in range(1, min(d, 4) + 1):
        x = peeling._local_design(s)[0]
        for subset in combinations(range(d), s):
            for row in x:
                v = np.zeros(d, dtype=np.complex128)
                v[list(subset)] = row
                vectors.append(RankOneProjection(v).vector)
    return vectors


@pytest.mark.parametrize("d", [2, 3, 5])
def test_cached_probes_are_the_subset_loop_read_only(d):
    probes = peeling._probes(d)
    assert peeling._probes(d) is probes
    flat = [r.vector for size in probes for r in size]
    assert [v.tobytes() for v in flat] == [v.tobytes() for v in _probe_loop(d)]
    assert all(not v.flags.writeable for v in flat)
