import numpy as np
import pytest

from chi2lab import (
    NotHermitian,
    PdOperator,
    PsdOperator,
    HermitianMatrix,
    RankOneProjection,
    SingularOperator,
    SolverFailure,
    eigh,
    frac_power,
    norms,
    support_contained,
    support_projection,
)
from chi2lab.ensembles import haar_unitary, random_hermitian, random_psd
from chi2lab.linalg import (
    _round_robin_plan,
    hermitian_part,
    hs_norm,
    jacobi_eigh,
    op_norm,
)


def test_eigh_diagonal_orders_descending():
    spec = eigh(HermitianMatrix(np.diag([0.3, 0.7])))
    np.testing.assert_allclose(spec.eigenvalues, [0.7, 0.3])
    np.testing.assert_allclose(spec.projections[0], np.diag([0.0, 1.0]), atol=1e-14)
    np.testing.assert_allclose(spec.projections[1], np.diag([1.0, 0.0]), atol=1e-14)


def test_eigh_identity_single_cluster():
    spec = eigh(HermitianMatrix(np.eye(2)))
    assert spec.eigenvalues == (1.0,)
    assert spec.multiplicities == (2,)
    np.testing.assert_allclose(spec.projections[0], np.eye(2), atol=1e-14)


def test_eigh_2x2_hand_solved():
    # [[2,1],[1,2]] has eigenpairs 3 with (1,1)/sqrt2 and 1 with (1,-1)/sqrt2
    spec = eigh(HermitianMatrix([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-12)
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    np.testing.assert_allclose(spec.projections[0], plus, atol=1e-12)
    np.testing.assert_allclose(spec.projections[1], minus, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 16])
def test_jacobi_matches_numpy(d):
    rng = np.random.default_rng(d)
    m = random_hermitian(d, rng)
    w, v = jacobi_eigh(m)
    ref = np.sort(np.linalg.eigvalsh(m))[::-1]
    np.testing.assert_allclose(w, ref, atol=1e-12 * max(1.0, abs(ref[0])))
    np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-12)


def test_jacobi_sweep_cap_raises():
    rng = np.random.default_rng(0)
    m = random_hermitian(5, rng)
    with pytest.raises(SolverFailure):
        jacobi_eigh(m, max_sweeps=1)


def _graded_pd(d, rng):
    """B = D H D with H Haar-conjugated, eigenvalues in [0.25, 1.25], and
    D a permuted grading over 5 decades: condition number near 1e10."""
    u = haar_unitary(d, rng)
    h = hermitian_part((u * rng.uniform(0.25, 1.25, d)) @ u.conj().T)
    grading = 10.0 ** -np.linspace(0.0, 5.0, d)
    grading = grading[rng.permutation(d)]
    return h * np.outer(grading, grading)


def _reference_eigenvalues(b):
    """Eigenvalues of b, decreasing, computed by mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    d = b.shape[0]
    with mpmath.workdps(40):
        m = mpmath.matrix(d, d)
        for i in range(d):
            for j in range(d):
                m[i, j] = mpmath.mpc(b[i, j].real, b[i, j].imag)
        eigs = mpmath.eigh(m, eigvals_only=True)
        return np.array(sorted((float(e) for e in eigs), reverse=True))


@pytest.mark.parametrize("d", [4, 8, 16])
def test_jacobi_relative_accuracy_on_graded_matrices(d):
    # Jacobi keeps every eigenvalue of D H D to high relative accuracy
    # (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), where a
    # normwise backward-stable solver only bounds the error by eps * lmax
    rng = np.random.default_rng(100 + d)
    for _ in range(3):
        b = _graded_pd(d, rng)
        ref = _reference_eigenvalues(b)
        assert ref[0] / ref[-1] > 1e9
        w, _ = jacobi_eigh(b)
        assert np.max(np.abs(w - ref) / ref) <= 1e-13


def test_round_robin_plan_visits_each_pair_once_per_sweep():
    for d in range(2, 18):
        rounds, off = _round_robin_plan(d)
        assert len(rounds) == d + d % 2 - 1
        seen = []
        for idx in rounds:
            m = len(idx) // 4
            p, q = np.divmod(idx[2 * m : 3 * m], d)
            assert np.all(p < q)
            # disjoint pairs: no index twice in a round
            assert len(set(p.tolist()) | set(q.tolist())) == 2 * m
            np.testing.assert_array_equal(idx[:m], p * (d + 1))
            np.testing.assert_array_equal(idx[m : 2 * m], q * (d + 1))
            np.testing.assert_array_equal(idx[3 * m :], q * d + p)
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(d) for q in range(p + 1, d)]
        diag = np.arange(d) * (d + 1)
        np.testing.assert_array_equal(np.setdiff1d(np.arange(d * d), diag), off)


def test_jacobi_trivial_inputs_return_early():
    w, v = jacobi_eigh(np.array([[2.5]]), max_sweeps=0)
    assert w.tolist() == [2.5]
    assert v.tolist() == [[1.0]]
    w, v = jacobi_eigh(np.zeros((3, 3)), max_sweeps=0)
    assert w.tolist() == [0.0, 0.0, 0.0]
    assert v.tolist() == np.eye(3).tolist()


def test_jacobi_is_bitwise_deterministic():
    m = random_hermitian(7, np.random.default_rng(11))
    w1, v1 = jacobi_eigh(m)
    w2, v2 = jacobi_eigh(m.copy())
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


def test_jacobi_zero_and_subnormal_lanes():
    # the first round at d = 4 rotates the pairs (0, 3) and (1, 2); the
    # lane (1, 2) has tied diagonal entries and an entry that is zero or
    # subnormal, while the live lane (0, 3) keeps the sweep going
    for a12 in (0.0, 1e-310):
        m = np.diag([1.0, 2.0, 2.0, 3.0]).astype(complex)
        m[0, 3] = m[3, 0] = 0.5
        m[0, 2] = m[2, 0] = 0.3
        m[1, 3] = 0.25 + 0.25j
        m[3, 1] = 0.25 - 0.25j
        m[1, 2] = m[2, 1] = a12
        w, v = jacobi_eigh(m)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(m)[::-1], atol=1e-14)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-14)
        np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-14)


def test_reassembly_invariant():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        for _ in range(20):
            m = random_hermitian(d, rng)
            spec = eigh(HermitianMatrix(m))
            bound = 1e-10 * (1.0 + op_norm(m))
            assert op_norm(spec.reassemble() - m) <= bound
            spec.validate(m)


def test_frac_power_identity():
    eye = PsdOperator(np.eye(3))
    for p in (-1.0, -0.3, 0.0, 0.5, 1.0):
        np.testing.assert_allclose(frac_power(eye, p).mat, np.eye(3), atol=1e-13)


def test_frac_power_square_root():
    a = PsdOperator(np.diag([4.0, 1.0]))
    np.testing.assert_allclose(frac_power(a, 0.5).mat, np.diag([2.0, 1.0]), atol=1e-13)


def test_frac_power_pseudo_on_singular():
    a = PsdOperator(np.diag([4.0, 0.0]))
    got = frac_power(a, -0.5, pseudo=True)
    np.testing.assert_allclose(got.mat, np.diag([0.5, 0.0]), atol=1e-13)


def test_frac_power_negative_requires_pseudo():
    a = PsdOperator(np.diag([4.0, 0.0]))
    with pytest.raises(SingularOperator):
        frac_power(a, -0.5)


def test_frac_power_out_of_range():
    with pytest.raises(ValueError):
        frac_power(PsdOperator(np.eye(2)), 1.5)


def test_frac_power_inverse_is_support():
    rng = np.random.default_rng(7)
    for d in (2, 3, 4):
        for p in (0.25, 0.5, 1.0):
            a = random_psd(d, rng)
            prod = frac_power(a, p, pseudo=True).mat @ frac_power(a, -p, pseudo=True).mat
            assert op_norm(prod - support_projection(a)) <= 1e-9


def test_support_projection_examples():
    np.testing.assert_allclose(
        support_projection(PsdOperator(np.diag([1.0, 0.0]))), np.diag([1.0, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(
        support_projection(PdOperator(np.diag([2.0, 1.0]))), np.eye(2), atol=1e-12
    )
    v = np.array([1.0, 1j]) / np.sqrt(2)
    p = RankOneProjection(v)
    np.testing.assert_allclose(
        support_projection(PsdOperator(p.matrix)), p.matrix, atol=1e-12
    )
    np.testing.assert_allclose(
        support_projection(PsdOperator(np.zeros((2, 2)))), np.zeros((2, 2)), atol=1e-15
    )


def test_support_contained_examples():
    assert support_contained(PsdOperator(np.diag([1.0, 0.0])), PsdOperator(np.diag([2.0, 0.0])))
    # full support cannot fit inside a rank-one support
    assert not support_contained(PsdOperator(np.eye(2)), PsdOperator(np.diag([1.0, 0.0])))
    assert support_contained(PsdOperator(np.zeros((2, 2))), PsdOperator(np.diag([1.0, 0.0])))


def test_support_contained_reflexive_transitive():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = 4
        c = random_psd(d, rng, rank=3)
        supp_c = support_projection(c)
        gb = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        b_mat = supp_c @ (gb @ gb.conj().T) @ supp_c
        b = PsdOperator(b_mat)
        supp_b = support_projection(b)
        ga = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        a = PsdOperator(supp_b @ (ga @ ga.conj().T) @ supp_b)
        for x in (a, b, c):
            assert support_contained(x, x)
        assert support_contained(a, b)
        assert support_contained(b, c)
        assert support_contained(a, c)


def test_norms_examples():
    hs, op = norms(np.eye(2))
    assert abs(hs - np.sqrt(2)) < 1e-14
    assert abs(op - 1.0) < 1e-12
    hs, op = norms(np.diag([3.0, 4.0]))
    assert abs(hs - 5.0) < 1e-13
    assert abs(op - 4.0) < 1e-12
    assert norms(np.zeros((2, 2))) == (0.0, 0.0)


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_op_norm_extreme_scales(scale):
    # M* M would underflow to zero or overflow to inf at these scales
    assert op_norm(scale * np.eye(3)) == scale
    assert op_norm(scale * np.diag([3.0, -4.0])) == pytest.approx(4.0 * scale, rel=1e-14)


def test_hs_majorizes_op():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(m) >= op_norm(m) - 1e-12


def test_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
