import inspect
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chi2lab import (
    NotHermitian,
    NotPositiveSemidefinite,
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
from chi2lab.ensembles import haar_unitary, pd_stack, psd_stack, random_hermitian, random_psd
from chi2lab import linalg
from chi2lab.linalg import (
    _MAX_SWEEPS,
    _OFF,
    SpectralDecomposition,
    _cholesky_or_nan,
    _jacobi,
    cluster_eigenpairs,
    complete_to_unitary,
    _round_robin_plan,
    _sorted,
    _stacked_plan,
    hermitian_part,
    hs_norm,
    jacobi_eigh,
    op_norm,
    spectral_decomposition,
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


def test_jacobi_rejects_a_negative_sweep_cap():
    # even a diagonal matrix, which needs no sweep
    for m in (np.diag([1.0, 2.0]), np.zeros((3, 2, 2))):
        with pytest.raises(ValueError, match="max_sweeps"):
            jacobi_eigh(m, max_sweeps=-1)


def _graded_pd(d, rng, decades=5.0):
    """B = D H D with H Haar-conjugated, eigenvalues in [0.25, 1.25], and
    D a permuted grading over 5 decades: condition number near 1e10."""
    u = haar_unitary(d, rng)
    h = hermitian_part((u * rng.uniform(0.25, 1.25, d)) @ u.conj().T)
    grading = 10.0 ** -np.linspace(0.0, decades, d)
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


def test_stacked_jacobi_matches_each_slice_bit_for_bit():
    # every slice keeps its own prescale, threshold and sweep count, so a
    # stacked solve must reproduce each slice's own 2-D solve exactly; odd d
    # drops the padding pair of each round
    for d in (2, 3, 4, 5, 8, 16):
        rng = np.random.default_rng(21)
        u = haar_unitary(d, rng)
        tied = np.where(np.arange(d) < d // 2, 1.0, 0.5)
        tied[-1] += 1e-12
        graded = [_graded_pd(d, rng, decades=3.75) for _ in range(3)]
        slices = [random_hermitian(d, rng) for _ in range(3)] + graded + [
            2.0**-990 * random_hermitian(d, rng),
            2.0**990 * random_hermitian(d, rng),
            np.zeros((d, d)),
            np.diag(rng.standard_normal(d)),
            # a positive definite slice, which factors, beside a slice of
            # rounding noise, which does not
            pd_stack(d, rng, None)[0],
            1e-15 * random_hermitian(d, rng),
            hermitian_part((u * tied) @ u.conj().T),
        ]
        stack = np.array(slices, dtype=complex)
        w, v = jacobi_eigh(stack)
        spec = spectral_decomposition(stack)
        assert w.shape == (len(slices), d) and v.shape == stack.shape
        for k, m in enumerate(slices):
            wk, vk = jacobi_eigh(m)
            assert w[k].tobytes() == wk.tobytes() and v[k].tobytes() == vk.tobytes()
            one = spectral_decomposition(m)
            assert spec.w[k].tobytes() == one.w.tobytes()
            assert spec.v[k].tobytes() == one.v.tobytes()
        last = SpectralDecomposition(spec.w[-1], spec.v[-1])
        assert last.multiplicities == (d // 2, d - d // 2)
        routes = np.isfinite(_cholesky_or_nan(stack)).all(axis=(-2, -1))
        assert routes[[3, 4, 5, 10, 12]].all() and not routes[[0, 1, 2, 11]].any()
        for k in range(3, 6):
            ref = _reference_eigenvalues(slices[k])
            assert ref[0] / ref[-1] > 1e6
            assert np.max(np.abs(w[k] - ref) / ref) <= 1e-13


def test_stacked_jacobi_at_d_1():
    stack = np.array([[[2.5]], [[-1.0]], [[0.0]]])
    w, v = jacobi_eigh(stack, max_sweeps=0)
    assert w.tolist() == [[2.5], [-1.0], [0.0]]
    assert v.tolist() == [[[1.0]]] * 3


def test_jacobi_raises_on_a_nan_entry():
    # d = 1 runs the sweep loop of larger d, whose NaN threshold is never met
    for m in ([[np.nan]], np.diag([np.nan, 1.0])):
        with pytest.raises(SolverFailure, match="threshold nan"):
            jacobi_eigh(np.array(m), max_sweeps=2)


def test_stacked_jacobi_failure_names_the_slice():
    rng = np.random.default_rng(0)
    stack = np.array([
        np.diag([1.0, 2.0, 3.0, 4.0, 5.0]),
        np.zeros((5, 5)),
        random_hermitian(5, rng),
        np.eye(5),
    ])
    with pytest.raises(SolverFailure, match=r"slice 2 \(1 of 4 unconverged\)"):
        jacobi_eigh(stack, max_sweeps=1)


def _test_matrix(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """A random positive definite, graded positive definite or indefinite
    Hermitian d x d matrix."""
    if kind == "indefinite":
        # eigenvalues of alternating sign, 0.25 to 1.25 in modulus
        u = haar_unitary(d, rng)
        signs = np.where(np.arange(d) % 2, -1.0, 1.0)
        return hermitian_part((u * (signs * rng.uniform(0.25, 1.25, d))) @ u.conj().T)
    if kind == "graded":
        return _graded_pd(d, rng, decades=rng.uniform(1.0, 5.0))
    return pd_stack(d, rng, None)[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 16),
    st.sampled_from(["pd", "graded", "indefinite"]),
    st.integers(0, 2**32 - 1),
)
def test_jacobi_residual_and_orthogonality(d, kind, seed):
    # positive definite and graded slices take the one-sided route,
    # indefinite ones the two-sided route; both stop once their off-diagonal
    # part falls below 1e-14 (45 eps) of the scale, relative (one-sided) or
    # normwise (two-sided), so c = 50 bounds both criteria
    m = _test_matrix(kind, d, np.random.default_rng(seed))
    factored = np.isfinite(_cholesky_or_nan(m.astype(complex))).all()
    assert factored == (kind != "indefinite")
    w, v = jacobi_eigh(m)
    bound = 50 * d * np.finfo(np.float64).eps
    assert op_norm(m @ v - v * w) <= bound * op_norm(m)
    assert op_norm(v.conj().T @ v - np.eye(d)) <= bound


@pytest.mark.parametrize("kind", ["pd", "graded"])
def test_one_sided_route_agrees_with_two_sided_jacobi(kind):
    # _jacobi, the two-sided route alone, is the reference: each eigenvalue
    # of a positive definite slice agrees within 1e-13 relative, also for
    # a stack of such slices
    rng = np.random.default_rng(31)
    for d in (2, 3, 4, 6, 8, 16):
        stack = np.array([_test_matrix(kind, d, rng) for _ in range(4)], dtype=complex)
        assert np.isfinite(_cholesky_or_nan(stack)).all()
        ref, _ = _jacobi(stack.copy(), 100)
        w, _ = jacobi_eigh(stack)
        assert np.max(np.abs(w - ref) / ref) <= 1e-13


def test_cholesky_or_nan_factors_each_slice_of_a_mixed_stack():
    # one call factors the positive definite slices and leaves NaN in the
    # others, with no RuntimeWarning (an error here), where np.linalg.cholesky
    # raises for the whole stack
    rng = np.random.default_rng(33)
    u = haar_unitary(4, rng)
    singular = hermitian_part((u[:, :2] * [1.0, 0.5]) @ u[:, :2].conj().T)
    stack = np.array([
        pd_stack(4, rng, None)[0],
        random_hermitian(4, rng),
        1e-15 * random_hermitian(4, rng),
        _graded_pd(4, rng),
        -np.eye(4),
        singular - 1e-12 * np.eye(4),
    ], dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(stack)
    chol = _cholesky_or_nan(stack)
    assert chol.shape == stack.shape
    factored = np.isfinite(chol).all(axis=(-2, -1))
    assert factored.tolist() == [True, False, False, True, False, False]
    assert np.isnan(chol[~factored]).all()
    for k in np.flatnonzero(factored):
        assert chol[k].tobytes() == np.linalg.cholesky(stack[k]).tobytes()
        np.testing.assert_allclose(chol[k] @ chol[k].conj().T, stack[k], rtol=0, atol=1e-15)


def test_one_sided_sweep_cap_raises_and_names_the_slice():
    # a graded positive definite slice needs a rotation sweep after the
    # preconditioner, so max_sweeps=0 fails on the one-sided route
    rng = np.random.default_rng(35)
    b = _graded_pd(8, rng)
    assert np.isfinite(_cholesky_or_nan(b.astype(complex))).all()
    w, _ = jacobi_eigh(b, max_sweeps=1)
    with pytest.raises(SolverFailure, match="largest relative Gram entry"):
        jacobi_eigh(b, max_sweeps=0)
    # the count covers both Jacobi routes: slice 1 on the one-sided route
    # and the indefinite slice 3 on the two-sided one; the diagonal slice 0
    # and the random positive definite slice 2 need no sweep
    stack = np.array([np.eye(8), b, pd_stack(8, rng, None)[0], random_hermitian(8, rng)])
    with pytest.raises(SolverFailure, match=r"slice 1 \(2 of 4 unconverged\)"):
        jacobi_eigh(stack, max_sweeps=0)
    assert jacobi_eigh(stack)[0][1].tobytes() == w.tobytes()


def test_every_sweep_cap_of_a_mixed_stack():
    # the sweep loop freezes each slice of a stack once it converges and
    # writes it back; at every cap below the largest count the stacked solve
    # names the first slice that needs more sweeps and counts all of them
    # (alone, the slices need 0, 1, 0, 5, 1, 4 and 0 sweeps, so the message
    # reads "slice 1 (4 of 7 unconverged)" at cap 0 and "slice 3 (1 of 7
    # unconverged)" at cap 4), and at the largest count every slice equals
    # its own 2-D solve
    d, rng = 6, np.random.default_rng(35)
    slices = [
        np.eye(d),
        _graded_pd(d, rng, 5.0),
        pd_stack(d, rng, None)[0],
        random_hermitian(d, rng),
        _graded_pd(d, rng, 3.0),
        random_hermitian(d, rng),
        np.zeros((d, d)),
    ]
    stack = np.array(slices, dtype=complex)

    def solve_alone(m):
        for cap in range(100):
            try:
                return cap, jacobi_eigh(m, max_sweeps=cap)
            except SolverFailure:
                pass

    counts, alone = zip(*map(solve_alone, slices))
    # slices that need a sweep are not diagonal: those that factor take the
    # one-sided route, the others the two-sided one
    factored = np.isfinite(_cholesky_or_nan(stack)).all(axis=(-2, -1))
    assert {bool(f) for f, c in zip(factored, counts) if c} == {True, False}
    assert len(set(counts)) >= 3
    for cap in range(max(counts)):
        stuck = [k for k, c in enumerate(counts) if c > cap]
        match = rf"slice {stuck[0]} \({len(stuck)} of {len(slices)} unconverged\)"
        with pytest.raises(SolverFailure, match=match):
            jacobi_eigh(stack, max_sweeps=cap)
    w, v = jacobi_eigh(stack, max_sweeps=max(counts))
    for k, (wk, vk) in enumerate(alone):
        assert w[k].tobytes() == wk.tobytes() and v[k].tobytes() == vk.tobytes()


def test_round_robin_plan_visits_each_pair_once_per_sweep():
    for d in range(1, 18):
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


def test_rotation_plan_fills_the_real_form_of_each_round():
    # the kernel stores [c, c, c, c, u, u, -u, -u] at a round's real indices;
    # that must be the real form of the complex J built from the same lanes
    rng = np.random.default_rng(25)
    for d in range(1, 17):
        for n in (1, 3):
            for idx, rot in _stacked_plan(d, n):
                lanes = len(idx) // 4
                c = rng.uniform(0.5, 1.0, lanes)
                cu = rng.standard_normal(lanes) + 1j * rng.standard_normal(lanes)
                j = np.empty((n, d, d), dtype=complex)
                j[...] = np.eye(d)
                j.put(idx, np.concatenate([c, c, cu, -cu.conj()]))
                e = np.empty((n, 2 * d, 2 * d))
                e[...] = np.eye(2 * d)
                u = cu.view(np.float64)
                e.put(rot, np.concatenate([c, c, c, c, u, u, -u, -u]))
                assert np.array_equal(e, SpectralDecomposition(np.zeros((n, d)), j)._real_v)
                z = rng.standard_normal((n, 3, d)) + 1j * rng.standard_normal((n, 3, d))
                np.testing.assert_allclose(
                    z.view(np.float64) @ e, (z @ j).view(np.float64), rtol=0, atol=1e-14
                )


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


def test_jacobi_ignores_the_memory_layout_of_its_input():
    # the rotations multiply float views of the entries; Fortran order and
    # transposed or strided views solve as their C-ordered copies, bit for bit
    m = random_hermitian(5, np.random.default_rng(12))
    stack = np.array([m, m.conj(), m.real])
    for x, ref in (
        (np.asfortranarray(m), m),
        (m.T.conj(), m.T.conj().copy()),
        (np.asfortranarray(stack), stack),
        (stack[::2], stack[::2].copy()),
    ):
        for got, want in zip(jacobi_eigh(x), jacobi_eigh(ref)):
            assert got.tobytes() == want.tobytes()


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


def _loop_sum(spec, weight, cutoff=None):
    """Reference: the explicit per-cluster sum, skipping clusters at or below cutoff."""
    out = np.zeros_like(spec.projections[0])
    for lam, proj in zip(spec.eigenvalues, spec.projections):
        if cutoff is None or lam > cutoff:
            out = out + weight(lam) * proj
    return out


def test_spectral_functions_match_the_explicit_loop():
    # (V * f(w)) @ V* sums in another order than the per-eigenspace loop,
    # so the two agree to rounding, not bitwise
    rng = np.random.default_rng(12)
    specs = [eigh(random_psd(d, rng, rank=r)) for d, r in ((2, 2), (4, 2), (6, 5))]
    specs += [
        SpectralDecomposition([2.0, 1e-12, 0.0], np.eye(3)),
        SpectralDecomposition([0.0, 0.0], np.eye(2)),
        SpectralDecomposition([-1.0, -2.0], np.eye(2)),
    ]

    def check(got, want):
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))

    for spec in specs:
        cutoff = 1e-10 * max(spec.lmax, 0.0)
        check(spec.reassemble(), _loop_sum(spec, lambda t: t))
        check(spec.apply(np.exp), _loop_sum(spec, np.exp))
        for p in (-0.5, 0.25, 1.0, 2.0):
            check(spec.power(p, pseudo=True), _loop_sum(spec, lambda t: t**p, cutoff))
        check(spec.support(), _loop_sum(spec, lambda t: 1.0, cutoff))


def test_spectral_decomposition_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        SpectralDecomposition([1.0, 0.5], np.eye(3))
    with pytest.raises(ValueError):
        SpectralDecomposition(np.ones((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        SpectralDecomposition([], np.eye(0))


def test_validate_catches_broken_invariants():
    SpectralDecomposition([1.0, 0.5], np.eye(2)).validate(np.diag([1.0, 0.5]))
    skewed = np.array([[1.0, 1e-6], [0.0, 1.0]])
    with pytest.raises(AssertionError, match="orthonormal"):
        SpectralDecomposition([1.0, 0.5], skewed).validate()
    with pytest.raises(AssertionError, match="non-increasing"):
        SpectralDecomposition([0.5, 1.0], np.eye(2)).validate()
    with pytest.raises(AssertionError, match="reassembly"):
        SpectralDecomposition([1.0, 0.5], np.eye(2)).validate(np.diag([0.5, 1.0]))


def test_views_on_a_degenerate_spectrum():
    u = haar_unitary(3, np.random.default_rng(4))
    spec = cluster_eigenpairs([0.2, 0.7, 0.7 + 1e-12], u)
    assert spec.eigenvalues == (0.7 + 0.5e-12, 0.2)
    assert spec.multiplicities == (2, 1)
    np.testing.assert_array_equal(spec.w, [0.7 + 0.5e-12, 0.7 + 0.5e-12, 0.2])
    top, bottom = spec.projections
    np.testing.assert_allclose(bottom, np.outer(u[:, 0], u[:, 0].conj()), atol=1e-15)
    np.testing.assert_allclose(top + bottom, np.eye(3), atol=1e-15)
    assert abs(np.trace(top).real - 2.0) <= 1e-15
    for arr in (spec.w, spec.v, top, bottom):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    spec.validate(spec.reassemble())


@pytest.mark.parametrize(
    "x",
    [
        np.array([0.6 * np.exp(0.7j), 0.0, 0.8j]),
        np.array([0.0, 0.6, 0.8j]),
        np.array([-1j, 0.0, 0.0]),
    ],
    ids=["complex-x0", "zero-x0", "minus-i-e0"],
)
def test_complete_to_unitary(x):
    h = complete_to_unitary(x)
    np.testing.assert_allclose(h.conj().T @ h, np.eye(3), atol=1e-15)
    # the first column is x times a unimodular phase
    phase = np.vdot(x, h[:, 0])
    assert abs(abs(phase) - 1.0) <= 1e-15
    np.testing.assert_allclose(h[:, 0], phase * x, atol=1e-15)


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


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160])
def test_extreme_scales_match_scaled_lapack(scale):
    # the squares of these entries underflow to zero or overflow to inf
    rng = np.random.default_rng(17)
    for d in (1, 2, 4, 7):
        m = random_hermitian(d, rng)
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs = hs_norm(scale * m)
            w, v = jacobi_eigh(scale * m)
        assert hs / scale == pytest.approx(np.linalg.norm(m), rel=1e-14)
        np.testing.assert_allclose(w / scale, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(d), atol=1e-13)
        np.testing.assert_allclose((v * (w / scale)) @ v.conj().T, m, atol=1e-13)


def test_normal_scales_skip_the_prescale_bitwise():
    m = 3.0 * random_hermitian(6, np.random.default_rng(19))
    assert hs_norm(m) == float(np.linalg.norm(m))
    w, v = jacobi_eigh(m)
    w0, v0 = _jacobi(m.astype(complex), 100)
    assert w.tobytes() == w0.tobytes()
    assert v.tobytes() == v0.tobytes()
    # an exact power-of-two scale outside the safe range changes only w's exponent
    ws, vs = jacobi_eigh(2.0**-990 * m)
    assert ws.tobytes() == np.ldexp(w, -990).tobytes()
    assert vs.tobytes() == v.tobytes()


def test_hs_norm_beyond_the_float_maximum_is_inf():
    # an overflow warning would fail the test (RuntimeWarnings are errors)
    assert hs_norm(np.array([[1.7e308, 1.7e308]])) == np.inf
    # the modulus of this finite entry already overflows
    assert hs_norm(np.array([[1.7e308 + 1.7e308j]])) == np.inf
    assert hs_norm(np.array([[1e308, 1e308]])) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)


def test_jacobi_eigenvalues_beyond_the_float_maximum_are_inf():
    # an overflow warning would fail the test (RuntimeWarnings are errors);
    # the eigenvalues are (1 +- sqrt 5) / 2 * 1.7e308
    m = np.array([[1.7e308, 1.7e308j], [-1.7e308j, 0.0]])
    w, v = jacobi_eigh(m)
    assert w[0] == np.inf
    assert w[1] == pytest.approx((1.0 - np.sqrt(5.0)) / 2.0 * 1.7e308, rel=1e-14)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-15)
    ws, _ = jacobi_eigh(np.stack([m, np.eye(2)]))
    assert ws[0].tobytes() == w.tobytes()
    assert ws[1].tolist() == [1.0, 1.0]


def test_hermitian_part_of_entries_above_half_the_float_maximum():
    # an overflow warning would fail the test (RuntimeWarnings are errors)
    diag = np.diag([1.7e308, 1.7e308])
    assert hermitian_part(diag.astype(complex)).tobytes() == diag.astype(complex).tobytes()
    assert HermitianMatrix(diag).mat.tobytes() == diag.astype(complex).tobytes()
    for cls in (PsdOperator, PdOperator):
        assert cls(diag).spectrum().w.tolist() == [1.7e308, 1.7e308]
    # Hermitian off-diagonal pairs, real and imaginary: eigenvalues +-1.7e308
    for top in (1.7e308, 1.7e308j):
        pair = np.array([[0.0, top], [np.conj(top), 0.0]])
        assert np.array_equal(hermitian_part(pair), pair)
        assert np.array_equal(HermitianMatrix(pair).mat, pair)
        for cls in (PsdOperator, PdOperator):
            with pytest.raises(NotPositiveSemidefinite) as err:
                cls(pair)
            assert str(err.value) == "eigenvalue -1.700e+308 below PSD floor -1.700e+298"
    # eigenvalues (1 +- sqrt 5) / 2 * 1.7e308: the largest overflows, which
    # makes the PSD floor -inf, so the eigenvalue test cannot decide
    indefinite = np.array([[1.7e308, 1.7e308j], [-1.7e308j, 0.0]])
    with pytest.raises(NotPositiveSemidefinite, match="beyond the float maximum"):
        PsdOperator(indefinite)
    # eigenvalues 3.4e308 (inf) and 0: certified
    assert PsdOperator(np.full((2, 2), 1.7e308)).spectrum().lmax == np.inf


def test_hermitian_part_keeps_its_bytes_inside_the_safe_range():
    rng = np.random.default_rng(29)
    cases = []
    for d in (1, 2, 4, 16):
        g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        cases += [g[0], 1e-80 * g[1], 1e80 * g[2], g * 10.0 ** rng.uniform(-80, 80, (5, 1, 1))]
    for m in cases:
        want = (m + m.conj().swapaxes(-1, -2)) / 2.0
        assert hermitian_part(m).tobytes() == want.tobytes()
    # a huge slice is prescaled on its own; the other slices keep their bytes
    g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    g[1] *= 1.7e308 / np.abs(g[1].view(float)).max()
    got = hermitian_part(g)
    for k in (0, 2):
        assert got[k].tobytes() == ((g[k] + g[k].conj().T) / 2.0).tobytes()
    # exact power-of-two scales commute with the sum and the halving
    assert (got[1] / 2.0**1000).tobytes() == hermitian_part(g[1] / 2.0**1000).tobytes()


def test_cluster_means_of_eigenvalues_near_the_float_maximum():
    # the run sum 3.4e308 and the gap 3.4e308 overflow; the mean does not
    spec = cluster_eigenpairs(np.array([1.7e308, 1.7e308]), np.eye(2))
    assert spec.w.tolist() == [1.7e308, 1.7e308]
    spec = cluster_eigenpairs(np.array([1.7e308, -1.7e308]), np.eye(2))
    assert spec.w.tolist() == [1.7e308, -1.7e308]
    # rows in the safe range merge as before, bit for bit
    w = np.array([[1.7e308, 1.7e308, 1.0], [3.0, 2.0, 2.0 + 1e-12]])
    spec = cluster_eigenpairs(w, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert spec.w[0].tolist() == [1.7e308, 1.7e308, 1.0]
    assert spec.w[1].tobytes() == cluster_eigenpairs(w[1], np.eye(3)).w.tobytes()
    # an empty stack has no largest magnitude to test
    assert cluster_eigenpairs(np.zeros((0, 3)), np.zeros((0, 3, 3))).w.shape == (0, 3)
    assert hermitian_part(np.zeros((0, 3, 3), dtype=complex)).shape == (0, 3, 3)


def test_an_empty_stack_solves_to_empty_eigenpairs():
    w, v = jacobi_eigh(np.zeros((0, 3, 3)))
    assert w.shape == (0, 3) and v.shape == (0, 3, 3)
    spec = spectral_decomposition(np.zeros((0, 3, 3), dtype=complex))
    assert spec.w.shape == (0, 3) and spec.v.shape == (0, 3, 3)


def test_cluster_keeps_an_overflowed_eigenvalue_apart():
    # eigenvalues 3.4e308 (inf) and 0: an inf window would merge the row
    assert PsdOperator(np.full((2, 2), 1.7e308)).spectrum().w.tolist() == [np.inf, 0.0]
    assert cluster_eigenpairs(np.array([np.inf, 1e-11, 0.0]), np.eye(3)).w.tolist() == [
        np.inf, 5e-12, 5e-12]
    # the prescale comes from the finite 1.7e308, not from inf
    spec = cluster_eigenpairs(np.array([np.inf, 1.7e308, 1.7e308, -np.inf]), np.eye(4))
    assert spec.w.tolist() == [np.inf, 1.7e308, 1.7e308, -np.inf]
    # equal infinities merge; with no finite eigenvalue the window is 1e-10
    assert cluster_eigenpairs(np.array([np.inf, np.inf, 0.0]), np.eye(3)).w.tolist() == [
        np.inf, np.inf, 0.0]
    assert cluster_eigenpairs(np.array([np.inf, -np.inf]), np.eye(2)).w.tolist() == [
        np.inf, -np.inf]
    # other rows of the stack keep their bytes
    w = np.array([[np.inf, 2.0, 2.0 + 1e-12], [3.0, 2.0, 2.0 + 1e-12]])
    spec = cluster_eigenpairs(w, np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert spec.w[0].tolist() == [np.inf, 2.0 + 5e-13, 2.0 + 5e-13]
    assert spec.w[1].tobytes() == cluster_eigenpairs(w[1], np.eye(3)).w.tobytes()


def test_hs_majorizes_op():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_norm(m) >= op_norm(m) - 1e-12


def test_hermitian_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])


def test_power_exponent_axis_matches_float_calls():
    # a float exponent and an exponent axis both go through one elementwise
    # loop, so each (exponent, slice) equals its own float, 2-D call bit for bit
    rng = np.random.default_rng(21)
    p = np.array([-1.0, -0.5, -0.25, 0.0, -0.0, 0.5, 0.25, 1.0, -0.75, 2.0, 0.5])
    n = 4
    for d in (2, 3, 4, 6, 8):
        for _, spec, kwargs in (
            (*pd_stack(d, rng, n), {}),
            (*psd_stack(d, rng, n, rank=d - 1), {"pseudo": True}),
        ):
            got = spec.power(p[:, None, None], **kwargs)
            assert got.shape == (len(p), n, d, d)
            for k in range(n):
                one = SpectralDecomposition(spec.w[k], spec.v[k])
                one_by_axis = one.power(p[:, None], **kwargs)
                for j, e in enumerate(p.tolist()):
                    want = one.power(e, **kwargs).tobytes()
                    assert got[j, k].tobytes() == want and one_by_axis[j].tobytes() == want


def test_real_form_of_v_multiplies_complex_rows_like_v():
    rng = np.random.default_rng(23)
    _, stack = pd_stack(4, rng, 5)
    one = eigh(random_psd(6, rng))
    for spec in (stack, one, SpectralDecomposition(one.w, np.asfortranarray(one.v))):
        e = spec._real_v
        assert e is spec._real_v and not e.flags.writeable
        d = spec.v.shape[-1]
        assert e.shape == spec.v.shape[:-2] + (2 * d, 2 * d)
        z = rng.standard_normal((3, d)) + 1j * rng.standard_normal((3, d))
        got = (z.view(np.float64) @ e).view(np.complex128)
        np.testing.assert_allclose(got, z @ spec.v, rtol=0, atol=1e-14)


def test_power_exponent_axis_on_a_singular_stack_needs_pseudo():
    _, spec = psd_stack(3, np.random.default_rng(22), 4, rank=2)
    p = np.array([0.5, -0.5, 0.25, 1.0, 0.0])[:, None, None]
    with pytest.raises(SingularOperator):
        spec.power(p)
    # nonnegative exponents need no pseudo-power
    np.testing.assert_array_equal(spec.power(np.abs(p)), spec.power(np.abs(p), pseudo=True))
    assert spec.power(p, pseudo=True).shape == (5, 4, 3, 3)


def _chain_merge(vals: list[float], cluster: float) -> list[float]:
    """The per-row merge ``cluster_eigenpairs`` ran before it was vectorised:
    sorted eigenvalues with each run of neighbours within
    ``cluster * max(1, |lmax|)`` replaced by its mean."""
    delta = cluster * max(1.0, abs(vals[0]))
    merged: list[float] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i - 1] - vals[i] > delta:
            run = vals[start:i]
            merged += [sum(run) / len(run)] * len(run)
            start = i
    return merged


# rows built from steps that land inside, at the edge of, or outside the
# merge window, so runs chain across several neighbours
_STEPS = st.sampled_from([0.0, 1e-12, 3e-9, 1e-8, 1.5e-8, 1e-3, 0.25, 1.0])
_ROWS = st.tuples(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, 3.5, -2e3, 1e6]),
    st.lists(st.tuples(_STEPS, st.sampled_from([0.0, -0.0, 1.0])), min_size=0, max_size=15),
)


def _row(start, steps):
    vals = [start]
    for step, zero in steps:
        # an exact zero (of either sign) now and then, else a step down
        vals.append(zero if zero != 1.0 and vals[-1] > 0.0 else vals[-1] - step)
    return vals


@settings(max_examples=200, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_cluster_merge_equals_the_per_row_chain_merge(rows, seed):
    rng = np.random.default_rng(seed)
    d = 1 + len(rows[0][1])
    w = np.array([(_row(start, steps) + [0.0] * d)[:d] for start, steps in rows])
    w = w[:, rng.permutation(d)]  # cluster_eigenpairs sorts first
    v = haar_unitary(d, rng)
    want = np.array([_chain_merge(sorted(row, reverse=True), 1e-8) for row in w.tolist()])
    stacked = cluster_eigenpairs(w, np.broadcast_to(v, (len(w), d, d)))
    assert stacked.w.tobytes() == want.tobytes()
    for k in range(len(w)):
        assert cluster_eigenpairs(w[k], v).w.tobytes() == want[k].tobytes()


def _sorted_then_merged(w, v, cluster=1e-8):
    """The reference for ``cluster_eigenpairs`` on rows in the safe range,
    with no step skipped: a stable sort, then every run's mean by
    ``bincount``."""
    vals, v = _sorted(w, v)
    delta = cluster * np.maximum(1.0, np.abs(vals[..., :1]))
    breaks = np.empty(vals.shape, dtype=bool)
    breaks[..., 0] = True
    np.greater(vals[..., :-1] - vals[..., 1:], delta, out=breaks[..., 1:])
    ids = breaks.cumsum() - 1
    return (np.bincount(ids, vals.ravel()) / np.bincount(ids))[ids].reshape(vals.shape), v


def _assert_same_spectrum(spec, w, v):
    assert spec.w.tobytes() == w.tobytes() and spec.v.tobytes() == v.tobytes()
    assert spec.v.flags.c_contiguous == v.flags.c_contiguous
    assert spec.v.flags.f_contiguous == v.flags.f_contiguous


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROWS, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
# rows [1, -0.0, -1] (a lone -0.0) and [-0.0, -0.0, -0.0] (a merged run)
@example([(1.0, [(1.0, -0.0), (1.0, 1.0)]), (-0.0, [(0.0, 1.0), (0.0, 1.0)])], 0)
def test_cluster_returns_new_arrays_for_sorted_and_shuffled_rows(rows, seed):
    # rows that come in sorted (as jacobi_eigh's do) are copied, not sorted
    # again, and rows without a merge take no bincount: the bytes and the
    # layout are those of the sort-and-merge either way, every -0.0 comes
    # back 0.0, and the caller's arrays are neither frozen nor shared
    rng = np.random.default_rng(seed)
    d = 1 + len(rows[0][1])
    w = np.array([(_row(start, steps) + [0.0] * d)[:d] for start, steps in rows])
    w = w[:, rng.permutation(d)]
    v = np.array([haar_unitary(d, rng) for _ in rows])
    for shuffled in ((w, v), (w[0], v[0])):
        want = _sorted_then_merged(*shuffled)
        for args in (shuffled, _sorted(*shuffled)):
            before = [x.tobytes() for x in args]
            spec = cluster_eigenpairs(*args)
            _assert_same_spectrum(spec, *want)
            assert not np.signbit(spec.w[spec.w == 0.0]).any()
            for x, b in zip(args, before):
                assert x.flags.writeable and x.tobytes() == b
                assert not np.shares_memory(x, spec.w) and not np.shares_memory(x, spec.v)


@settings(max_examples=100, deadline=None)
@given(_ROWS, st.booleans(), st.integers(0, 2**32 - 1))
def test_spectral_decomposition_sorts_once_and_returns_new_arrays(row, diagonal, seed):
    # near-tied, zero and -0.0 eigenvalues, on a rotated or an exactly
    # diagonal matrix: the one sort, in jacobi_eigh, gives the bytes and
    # the layout of sorting its output again, and the input is untouched
    rng = np.random.default_rng(seed)
    w = np.array(_row(*row))
    u = np.eye(len(w)) if diagonal else haar_unitary(len(w), rng)
    m = (u * w[rng.permutation(len(w))]) @ u.conj().T
    m = np.diag(np.diag(m).real) if diagonal else hermitian_part(m)
    before = m.tobytes()
    spec = spectral_decomposition(m)
    _assert_same_spectrum(spec, *_sorted_then_merged(*jacobi_eigh(m)))
    assert not np.signbit(spec.w[spec.w == 0.0]).any()
    assert m.flags.writeable and m.tobytes() == before
    assert not np.shares_memory(m, spec.w) and not np.shares_memory(m, spec.v)


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_hs_norm_sums_as_numpy_norm_does(d):
    # hs_norm sums the squares as np.linalg.norm does, in memory order,
    # whatever the layout, for entries in the safe range
    rng = np.random.default_rng(70 + d)
    for scale in (1e-80, 1e-3, 1.0, 1e3, 1e80):
        m = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for x in (m, m.T, m[::2, ::-1], m.real):
            want = np.linalg.norm(np.asarray(x, dtype=complex))
            assert np.float64(hs_norm(x)).tobytes() == want.tobytes()


def test_one_sided_preconditioner_is_numpys_eigh_bit_for_bit(monkeypatch):
    # the one-sided route calls LAPACK eigh through its gufunc; through
    # np.linalg.eigh instead, every eigenpair keeps its bytes
    rng = np.random.default_rng(72)
    inputs = [_test_matrix(kind, d, rng) for d in (2, 3, 4, 6, 8, 16) for kind in ("pd", "graded")]
    inputs.append(np.array([_test_matrix("pd", 8, rng) for _ in range(5)]))
    direct = [jacobi_eigh(m) for m in inputs]
    gufuncs = linalg._umath_linalg
    calls = []

    def eigh_lo(g, signature):
        assert signature == "D->dD"
        calls.append(g.shape)
        return np.linalg.eigh(g)

    shim = types.SimpleNamespace(cholesky_lo=gufuncs.cholesky_lo, eigh_lo=eigh_lo)
    monkeypatch.setattr(linalg, "_umath_linalg", shim)
    for m, (w, v) in zip(inputs, direct):
        w2, v2 = jacobi_eigh(m)
        assert w2.tobytes() == w.tobytes() and v2.tobytes() == v.tobytes()
    assert len(calls) == len(inputs)


def test_the_sweep_cap_is_the_solvers_one_setting():
    # the stopping threshold is the constant _OFF, read by both routes
    params = inspect.signature(jacobi_eigh).parameters
    assert list(params) == ["mat", "max_sweeps"]
    assert params["max_sweeps"].default == _MAX_SWEEPS == 100
    assert _OFF == 1e-14
