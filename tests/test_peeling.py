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
from chi2lab.linalg import op_norm, spectral_decomposition


def _rel_err(spec, hidden):
    return op_norm(spec.reassemble() - hidden.mat) / op_norm(hidden.mat)


def _budget(d):
    """2d² + d fixed fit probes, then d readout probes."""
    return 2 * d * d + 2 * d


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


@pytest.mark.parametrize("d, queries", [(2, 12), (3, 24), (6, 84)])
def test_peel_query_count_is_pinned(d, queries):
    rng = np.random.default_rng(40 + d)
    for alpha in (0.0, 0.5, 1.0):
        oracle = rank_one_query_oracle(random_nonsingular_density(d, rng), alpha)
        spectral_peel(oracle, d, alpha)
        assert oracle.count == queries == _budget(d)


@pytest.mark.parametrize("d", range(2, 9))
def test_peel_query_count_follows_the_formula(d):
    oracle = rank_one_query_oracle(random_nonsingular_density(d, np.random.default_rng(d)), 0.25)
    spectral_peel(oracle, d, 0.25)
    assert oracle.count == _budget(d)


@pytest.mark.parametrize("d", [2, 5])
def test_readout_probes_are_the_eigenvectors_of_the_fitted_partial_trace(d):
    hidden = random_nonsingular_density(d, np.random.default_rng(20 + d))
    inner = rank_one_query_oracle(hidden, 0.25)
    recorded = []

    def record(r):
        recorded.append(r.vector)
        return inner.query(r)

    spec = spectral_peel(DivergenceOracle(record), d, 0.25)
    assert len(recorded) == _budget(d)
    # the fixed design first, in order, then one probe per eigenvector of
    # A/tr(A) + B/tr(B), the sum of the two partial traces of the fitted
    # A⊗B/tr(A⊗B), smallest eigenvalue first
    fixed = [r.vector for r in peeling._design(d)[0]]
    assert [v.tobytes() for v in recorded[:-d]] == [v.tobytes() for v in fixed]
    exact = rank_one_query_oracle(hidden, 0.25)
    q = np.array([exact.query(r) for r in peeling._design(d)[0]])
    form_a, form_b, _ = peeling._fit(q, d, 0.25)
    mix = form_a / np.trace(form_a).real + form_b / np.trace(form_b).real
    vecs = spectral_decomposition(mix).v[:, ::-1]
    want = [RankOneProjection(u).vector for u in vecs.T]
    assert [v.tobytes() for v in recorded[-d:]] == [v.tobytes() for v in want]
    assert spec.v.tobytes() == vecs.tobytes()


@pytest.mark.parametrize("top, bottom", [(0, -6), (3, -3)])
@pytest.mark.parametrize("d", [4, 6, 8])
def test_graded_spectra_recover_to_ten_digits(d, top, bottom):
    lam = np.logspace(top, bottom, d)
    u = haar_unitary(d, np.random.default_rng(d))
    mat = (u * lam) @ u.conj().T
    hidden = PdOperator((mat + mat.conj().T) / 2)
    for alpha in DEFAULT_ALPHAS:
        spec = spectral_peel(rank_one_query_oracle(hidden, alpha), d, alpha)
        assert np.all(np.abs(spec.w - lam) <= 1e-10 * lam)
        assert _rel_err(spec, hidden) <= 1e-10


def _noisy_cases():
    rng = np.random.default_rng(70)
    for d in (4, 6, 8):
        for _ in range(3):
            yield d, random_nonsingular_density(d, rng)
    yield 2, PdOperator(np.eye(2) / 2)
    yield 3, PdOperator(np.eye(3) / 3)
    yield 5, PdOperator(np.diag([1 / 2, 1 / 2, 1 / 3, 1 / 3, 1 / 3]))


def test_noisy_peel_recovers_within_five_sigma():
    # the readout's error is about sigma * lambda^2 per eigenvalue; noise
    # may split a degenerate eigenspace and read its parts out of order,
    # which merges them, so degenerate spectra recover as well
    sigma = 1e-7
    for d, hidden in _noisy_cases():
        for seed in range(3):
            oracle = rank_one_query_oracle(hidden, 0.5, noise_sigma=sigma, seed=seed)
            spec = spectral_peel(oracle, d, 0.5)
            assert _rel_err(spec, hidden) <= 5 * sigma
            assert np.all(np.diff(spec.eigenvalues) < 0)


def test_out_of_order_readouts_merge_into_one_eigenvalue():
    # I/3 at sigma 1e-7, noise seed 0: the fit splits the eigenspace and the
    # readout reads two parts out of order; their eigenvalue is the mean of
    # 1/q over both
    hidden = PdOperator(np.eye(3) / 3)
    recorded = []
    inner = rank_one_query_oracle(hidden, 0.5, noise_sigma=1e-7, seed=0)

    def record(r):
        recorded.append(inner.query(r))
        return recorded[-1]

    spec = spectral_peel(DivergenceOracle(record), 3, 0.5)
    lams = 1.0 / np.array(recorded[-3:])
    assert lams[0] < lams[1] and spec.multiplicities == (2, 1)
    for lam, size in zip(spec.eigenvalues, spec.multiplicities):
        block = np.flatnonzero(spec.w == lam)
        assert len(block) == size
        assert lam == float(np.mean(lams[block]))


@pytest.mark.parametrize("read, merged", [
    ((0.25, 0.3, 0.2), (2, 1)),
    ((0.5, 0.2, 0.3), (1, 2)),
    ((0.25, 0.3, 0.35), (3,)),
], ids=["first-pair", "last-pair", "chain"])
def test_readouts_out_of_order_merge_deterministically(read, merged):
    # an exact fit of diag(0.5, 0.3, 0.2), whose d readout answers are
    # replaced by 1/read: each run of readouts that does not decrease pools
    # into one eigenvalue, the mean over its vectors, chaining backwards
    d = 3
    inner = rank_one_query_oracle(PdOperator(np.diag([0.5, 0.3, 0.2])), 0.5)
    fit = 2 * d * d + d

    def perturbed(r):
        value = inner.query(r)
        k = inner.count - fit - 1
        return value if k < 0 else 1.0 / read[k]

    spec = spectral_peel(DivergenceOracle(perturbed), d, 0.5)
    assert inner.count == _budget(d)
    assert spec.multiplicities == merged
    q = 1.0 / np.array(read)
    bounds = np.cumsum((0,) + merged)
    for lam, a, b in zip(spec.eigenvalues, bounds, bounds[1:]):
        assert lam == float(np.mean(1.0 / q[a:b]))
    assert np.all(np.diff(spec.eigenvalues) < 0)


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
    assert oracle.count == _budget(d) == 544
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


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("inf"), float("nan")])
def test_one_bad_fit_query_raises_before_the_start(bad):
    # the start takes sqrt(q); a value outside (0, inf) must raise first,
    # with no readout query made
    d = 3
    inner = rank_one_query_oracle(random_nonsingular_density(d, np.random.default_rng(2)), 0.5)

    def query(r):
        value = inner.query(r)
        return bad if inner.count == 7 else value

    oracle = DivergenceOracle(query)
    with np.errstate(invalid="raise"), pytest.raises(ReconstructionError, match="fit query"):
        spectral_peel(oracle, d, 0.5)
    assert oracle.count == 2 * d * d + d


@pytest.mark.parametrize("d", [3, 6])
def test_peel_rejects_queries_that_are_not_a_product_of_two_forms(d):
    # <v, A v>^2 + <v, B v>^2 is positive and smooth, but not a product of
    # two Hermitian forms: no spectrum may come back
    rng = np.random.default_rng(30 + d)
    a, b = (random_nonsingular_density(d, rng).mat for _ in range(2))

    def query(r):
        v = r.vector
        return np.vdot(v, a @ v).real ** 2 + np.vdot(v, b @ v).real ** 2

    oracle = DivergenceOracle(query)
    with pytest.raises(ReconstructionError, match="not a product of two Hermitian forms"):
        spectral_peel(oracle, d, 0.5)
    assert oracle.count == 2 * d * d + d


def test_large_declared_noise_passes_the_fit_check():
    # the residual bound grows with the oracle's declared noise_sigma, so a
    # genuine oracle at sigma 1e-3 fits, and recovers within a few sigma
    sigma = 1e-3
    rng = np.random.default_rng(13)
    for d in (2, 4):
        for alpha in DEFAULT_ALPHAS:
            hidden = random_nonsingular_density(d, rng)
            oracle = rank_one_query_oracle(hidden, alpha, noise_sigma=sigma, seed=d)
            spec = spectral_peel(oracle, d, alpha)
            assert _rel_err(spec, hidden) <= 50 * sigma


@pytest.mark.parametrize("alpha", DEFAULT_ALPHAS)
def test_noise_is_read_only_where_it_is_declared(alpha):
    # the same seeded answers at sigma 1e-5, once added by the wrapped
    # function (declared sigma 0) and once through noise_sigma: the misfit
    # bound reads only the declared sigma, so the first raises and the
    # second recovers
    d, sigma = 3, 1e-5
    hidden = random_nonsingular_density(d, np.random.default_rng(43))

    def oracle(declared):
        exact = rank_one_query_oracle(hidden, alpha)
        if declared:
            return DivergenceOracle(exact.query, noise_sigma=sigma, seed=9)
        rng = np.random.default_rng(9)
        return DivergenceOracle(lambda r: exact.query(r) + sigma * rng.standard_normal())

    probes = peeling._design(d)[0]
    assert [oracle(False).query(p) for p in probes] == [oracle(True).query(p) for p in probes]
    with pytest.raises(ReconstructionError, match="not a product"):
        spectral_peel(oracle(False), d, alpha)
    assert _rel_err(spectral_peel(oracle(True), d, alpha), hidden) <= 50 * sigma


@pytest.mark.parametrize("value", [1.0, 0.37, 2.5])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_peel_one_dimension(value, alpha):
    # d = 1: q = a b |v|^4 is often exact to the last bit, so the fit's cost
    # can be exactly 0, which must end it
    hidden = PdOperator(np.array([[value]]))
    oracle = rank_one_query_oracle(hidden, alpha)
    spec = spectral_peel(oracle, 1, alpha)
    assert oracle.count == _budget(1) == 4
    assert spec.multiplicities == (1,)
    assert abs(spec.eigenvalues[0] - value) <= 1e-14 * value
    np.testing.assert_allclose(spec.projections[0], [[1.0]], atol=1e-14)


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
        peeling._design.cache_clear()
        cold = _run(hidden, d, sigma)
        warm = _run(hidden, d, sigma)
        assert cold == warm
        assert cold[2] == _budget(d)


def test_probe_cache_keeps_only_the_latest_design():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        spectral_peel(rank_one_query_oracle(random_nonsingular_density(d, rng), 0.5), d, 0.5)
    assert peeling._design.cache_info().currsize == 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_design_is_built_once_read_only_and_reads_the_forms(d):
    design = peeling._design(d)
    assert peeling._design(d) is design
    probes, phi, pinv = design
    assert len(probes) == phi.shape[0] == 2 * d * d + d
    assert phi.shape[1] == d * d
    assert all(not r.vector.flags.writeable for r in probes)
    assert not phi.flags.writeable and not pinv.flags.writeable
    # a feature row reads <v, X v> off X's d² real parameters
    rng = np.random.default_rng(d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = x + x.conj().T
    params = peeling._parameters(x)
    assert peeling._hermitian(params, d).tobytes() == x.tobytes()
    want = [np.vdot(r.vector, x @ r.vector).real for r in probes]
    np.testing.assert_allclose(phi @ params, want, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pinv @ phi, np.eye(d * d), rtol=0, atol=1e-12)
