import numpy as np
import pytest

from chi2lab import (
    ComplexMatrix,
    DensityOperator,
    HermitianMatrix,
    NonsingularDensity,
    NotDensity,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    projection_family,
)
from chi2lab import chi2, chi2_extended, linalg, operators
from chi2lab.config import DEFAULT_TOL
from chi2lab.ensembles import haar_unitary, random_hermitian, random_pd, random_psd
from chi2lab.divergence import _finite_gram
from chi2lab.linalg import hermitian_part, hs_norm, op_norm, spectral_decomposition
from chi2lab.operators import (
    _cholesky_certifies_psd,
    _unit_rows,
    hermitian_from_overlaps,
    support_contained,
    support_projection,
)


def test_complex_matrix_validation():
    with pytest.raises(ValueError):
        ComplexMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ComplexMatrix([[np.inf, 0.0], [0.0, 1.0]])
    m = ComplexMatrix(np.eye(2))
    assert m.dim == 2 and m.trace() == 2.0


def test_hermitian_symmetrizes_tiny_asymmetry():
    m = np.array([[1.0, 1e-14], [0.0, 2.0]])
    h = HermitianMatrix(m)
    np.testing.assert_allclose(h.mat, h.mat.conj().T)


def test_psd_clamps_negligible_negative():
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    m = np.eye(2) - (1.0 + 1e-12) * np.outer(v, v)
    a = PsdOperator(m)
    assert a.spectrum().lmin >= 0.0


def test_psd_rejects_genuinely_negative():
    with pytest.raises(NotPositiveSemidefinite):
        PsdOperator(np.diag([1.0, -1e-3]))


def test_pd_rejects_singular():
    with pytest.raises(NotPositiveDefinite):
        PdOperator(np.diag([1.0, 0.0]))


def test_pd_gap_when_the_largest_eigenvalue_overflows():
    # eigenvalues 2.7e308 (inf) and 7e307: the gap test reads inf * tol.pd on
    # its right, so it is decided on the matrix scaled by 2^-1024, where
    # PsdOperator's Cholesky certificate already accepts the matrix
    m = np.array([[1.7e308, 1e308], [1e308, 1.7e308]])
    assert PdOperator(m).spectrum().w.tolist() == PsdOperator(m).spectrum().w.tolist()
    assert PdOperator(m).spectrum().w.tolist() == [np.inf, pytest.approx(7e307, rel=1e-14)]
    # eigenvalues 3.4e308 (inf) and 0: PSD but singular, scaled or not
    with pytest.raises(NotPositiveDefinite, match=r"scaled by 2\^-1024"):
        PdOperator(np.full((2, 2), 1.7e308))


def test_density_trace_check():
    DensityOperator(np.diag([0.4, 0.6]))
    with pytest.raises(NotDensity):
        DensityOperator(np.diag([0.4, 0.7]))


def test_nonsingular_density_is_pd_and_density():
    m = NonsingularDensity(np.diag([0.5, 0.5]))
    assert isinstance(m, PdOperator)
    assert isinstance(m, DensityOperator)
    with pytest.raises(NotPositiveDefinite):
        NonsingularDensity(np.diag([1.0, 0.0]))


def test_operator_is_immutable():
    a = PsdOperator(np.eye(2))
    with pytest.raises((AttributeError, TypeError)):
        a.mat = np.zeros((2, 2))
    with pytest.raises(ValueError):
        a.mat[0, 0] = 5.0


def test_rank_one_projection_normalizes():
    p = RankOneProjection([2.0, 0.0])
    assert abs(np.linalg.norm(p.vector) - 1.0) < 1e-12
    m = p.matrix
    np.testing.assert_allclose(m @ m, m, atol=1e-14)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
    with pytest.raises(ValueError):
        RankOneProjection([0.0, 0.0])


def test_rank_one_projection_validation():
    for bad in (complex(0.0, np.inf), complex(0.0, -np.inf), complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            RankOneProjection(np.array([1.0, bad]))
    for tiny in ([0.0, 0.0, 0.0], [1e-13, 0.0, 0.0]):
        with pytest.raises(ValueError, match="zero"):
            RankOneProjection(tiny)
    p = RankOneProjection([3.0, 4.0j, 0.0])
    assert abs(np.linalg.norm(p.vector) - 1.0) <= 1e-15
    np.testing.assert_allclose(p.vector, [0.6, 0.8j, 0.0], atol=1e-16)
    assert not p.vector.flags.writeable
    with pytest.raises(ValueError):
        p.vector[0] = 1.0


def test_projection_family_size_and_completeness():
    for d in (2, 3, 4):
        family = projection_family(d)
        assert len(family) == d * d
        rng = np.random.default_rng(d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = (g + g.conj().T) / 2
        overlaps = np.array([np.trace(x @ p.matrix).real for p in family])
        rebuilt = hermitian_from_overlaps(overlaps, d)
        np.testing.assert_allclose(rebuilt.mat, x, atol=1e-12)


def test_rank_one_projection_of_a_vector_whose_squared_norm_overflows():
    # an overflow warning would fail the test (RuntimeWarnings are errors)
    for scale in (1e200, 1e300 + 1e300j, -1.7e308):
        p = RankOneProjection([scale, scale])
        want = np.full(2, scale / abs(scale)) / np.sqrt(2)
        np.testing.assert_allclose(p.vector, want, rtol=1e-15)
        assert abs(p.overlap(p) - 1.0) <= 1e-15


def test_rank_one_projection_of_an_entry_whose_modulus_overflows():
    # |1.7e308 + 1.7e308j| is inf although both parts are finite
    p = RankOneProjection([1.7e308 + 1.7e308j, 0.0])
    np.testing.assert_allclose(p.vector, [(1 + 1j) / np.sqrt(2), 0.0], rtol=0, atol=1e-15)
    for bad in (complex(np.inf, 1.0), complex(1.7e308, np.inf), complex(1.7e308, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            RankOneProjection([bad, 1.0])


def test_rank_one_projection_of_a_strided_vector():
    u = np.arange(1.0, 10.0).reshape(3, 3) + 1j
    p = RankOneProjection(u[:, 1])
    assert p.vector.tobytes() == (u[:, 1] / np.linalg.norm(u[:, 1])).tobytes()


def test_unit_rows_match_rank_one_projection_bytes():
    rng = np.random.default_rng(23)
    stacks = []
    for d in (2, 3, 6):
        eye = np.eye(d, dtype=np.complex128)
        i, j = np.triu_indices(d, 1)
        stacks.append(np.concatenate([eye, eye[i] + eye[j], eye[i] + 1j * eye[j]]))
        g = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        stacks.append(g * 10.0 ** rng.uniform(-8, 8, (20, 1)))
    stacks.append(np.array([[1.7e308 + 1.7e308j, 0.0], [1e300, -1e300j], [3.0, 4.0j]]))
    for rows in stacks:
        got = _unit_rows(rows)
        assert got.shape == rows.shape
        for row, out in zip(rows, got):
            assert out.tobytes() == RankOneProjection(row).vector.tobytes()


def test_unit_rows_reject_a_bad_row_anywhere_in_the_stack():
    good = np.ones((3, 2), dtype=np.complex128)
    for k in range(3):
        for bad, match in ((complex(np.nan, 0.0), "finite"), (complex(0.0, np.inf), "finite"),
                           (0.0, "zero")):
            rows = good.copy()
            rows[k] = bad
            with pytest.raises(ValueError, match=match):
                _unit_rows(rows)


def test_projection_family_is_built_once():
    for d in (2, 3, 6):
        family = projection_family(d)
        assert projection_family(d) is family
        assert all(not p.vector.flags.writeable for p in family)


def _family_loop(d):
    """Reference: the family's vectors in the order of the nested pair loop."""
    eye = np.eye(d, dtype=np.complex128)
    vectors = [eye[:, i] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            vectors += [eye[:, i] + eye[:, j], eye[:, i] + 1j * eye[:, j]]
    return [RankOneProjection(v) for v in vectors]


def _overlaps_loop(vals, d):
    """Reference: the triangular solve of hermitian_from_overlaps, pair by pair."""
    x = np.zeros((d, d), dtype=np.complex128)
    for i in range(d):
        x[i, i] = vals[i]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            mean = (vals[i] + vals[j]) / 2.0
            re, im = vals[k] - mean, mean - vals[k + 1]
            k += 2
            x[i, j], x[j, i] = re + 1j * im, re - 1j * im
    return (x + x.conj().T) / 2.0


@pytest.mark.parametrize("d", range(2, 17))
def test_family_and_inverse_match_the_pair_loops(d):
    family = projection_family(d)
    assert [p.vector.tobytes() for p in family] == [p.vector.tobytes() for p in _family_loop(d)]
    vals = np.random.default_rng(d).standard_normal(d * d)
    assert hermitian_from_overlaps(vals, d).mat.tobytes() == _overlaps_loop(vals, d).tobytes()


def test_spectrum_is_cached():
    a = PsdOperator(np.diag([2.0, 1.0]))
    assert a.spectrum() is a.spectrum()


def _eigenvalue_rule(m, tol=DEFAULT_TOL):
    """The eigenvalue test of PSD membership: None when the Hermitian part of
    ``m`` has no eigenvalue below ``-tol.psd * max(1, lmax)``, else the
    NotPositiveSemidefinite message."""
    spec = spectral_decomposition(hermitian_part(np.asarray(m, dtype=complex)), tol)
    floor = -tol.psd * max(1.0, spec.lmax)
    if spec.lmin < floor:
        return f"eigenvalue {spec.lmin:.3e} below PSD floor {floor:.3e}"
    return None


def _assert_decided_as_by_eigenvalues(m, accept=None):
    """The Cholesky certificate and PsdOperator decide ``m`` as the eigenvalue
    rule does (and as ``accept`` says, when given); a rejection keeps the
    rule's error type and message."""
    message = _eigenvalue_rule(m)
    if accept is not None:
        assert (message is None) == accept
    h = hermitian_part(np.asarray(m, dtype=complex))
    assert _cholesky_certifies_psd(h, DEFAULT_TOL.psd) == (message is None)
    if message is None:
        assert "_spectrum" not in PsdOperator(m).__dict__
        return
    for cls in (PsdOperator, DensityOperator, PdOperator, NonsingularDensity):
        with pytest.raises(NotPositiveSemidefinite) as err:
            cls(m)
        assert type(err.value) is NotPositiveSemidefinite
        assert str(err.value) == message


def _with_spectrum(w, rng):
    u = haar_unitary(len(w), rng)
    return hermitian_part((u * w) @ u.conj().T)


def _scaled(m):
    """``m`` as given, scaled by 1e-170 and by 1e150, and scaled to an
    operator norm of 1e308, next to the float maximum; at 1e-170 the floor
    is absolute (1e-10) and admits every matrix, at the others it is
    relative."""
    return [m, 1e-170 * m, 1e150 * m, 1e308 * (m / op_norm(m))]


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_certificate_decides_at_the_floor_as_the_eigenvalue_rule(d):
    # lmin at -(1 -+ 1e-3) times the floor, just inside and just outside
    rng = np.random.default_rng(40 + d)
    for lmax in (0.5, 1.0, 3.0, 1e3) if d > 1 else (0.5,):
        floor = DEFAULT_TOL.psd * max(1.0, lmax)
        for side, accept in ((-1e-3, True), (1e-3, False)):
            inner = rng.uniform(0.0, lmax, max(d - 2, 0))
            w = np.concatenate([[lmax], inner, [-(1.0 + side) * floor]])[-d:]
            m, tiny, *huge = _scaled(_with_spectrum(w, rng))
            _assert_decided_as_by_eigenvalues(m, accept)
            _assert_decided_as_by_eigenvalues(tiny, True)
            # the floor is absolute below lmax 1: scaling up moves the edge
            for big in huge:
                _assert_decided_as_by_eigenvalues(big, accept and lmax >= 1.0)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_certificate_decides_rank_deficient_draws_as_the_eigenvalue_rule(d):
    rng = np.random.default_rng(50 + d)
    for rank in range(1, d + 1):
        m, tiny, *huge = _scaled(random_psd(d, rng, rank=rank).mat)
        for x in (m, tiny, *huge):
            _assert_decided_as_by_eigenvalues(x, True)
            _assert_decided_as_by_eigenvalues(-x, x is tiny)


@pytest.mark.parametrize("d", [4, 8, 16])
def test_certificate_decides_graded_matrices_as_the_eigenvalue_rule(d):
    # D H D over 3.75 decades, as the bench grades them: condition near 1e8
    rng = np.random.default_rng(60 + d)
    grading = 10.0 ** -np.linspace(0.0, 3.75, d)
    for _ in range(3):
        g = np.outer(grading, grading)[np.ix_(p := rng.permutation(d), p)]
        pd = _with_spectrum(rng.uniform(0.25, 1.25, d), rng) * g
        indefinite = random_hermitian(d, rng) * g
        for x in _scaled(pd):
            _assert_decided_as_by_eigenvalues(x, True)
        for x in _scaled(indefinite):
            _assert_decided_as_by_eigenvalues(x)


def test_certificate_decides_zero_and_one_dimensional_inputs():
    for d in (1, 2, 4, 16):
        _assert_decided_as_by_eigenvalues(np.zeros((d, d)), True)
    for x, accept in ((1.0, True), (0.0, True), (-1e-11, True), (-1e-9, False),
                      (1.7e308, True), (-1.7e308, False), (-1e-170, True), (-1e150, False)):
        _assert_decided_as_by_eigenvalues([[x]], accept)


def _counted(monkeypatch, module, name):
    """A list that grows by one on each call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _counting_solves(monkeypatch):
    return _counted(monkeypatch, linalg, "jacobi_eigh")


def test_psd_solves_on_the_first_spectrum_read(monkeypatch):
    calls = _counting_solves(monkeypatch)
    # eigenvalues 1 and -1e-12: inside the floor, certified without a solve
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    m = np.eye(2) - (1.0 + 1e-12) * np.outer(v, v)
    a = PsdOperator(m)
    assert len(calls) == 0
    # mat stays the Hermitian part; the spectrum clamps
    assert a.mat.tobytes() == hermitian_part(m.astype(complex)).tobytes()
    spec = a.spectrum()
    assert len(calls) == 1
    assert a.spectrum() is spec and len(calls) == 1
    assert spec.w.min() >= 0.0
    spec.validate(a.mat)
    want = spectral_decomposition(hermitian_part(m.astype(complex)))
    assert want.lmin < 0.0
    assert spec.w.tobytes() == np.maximum(want.w, 0.0).tobytes()
    assert spec.v.tobytes() == want.v.tobytes()
    calls.clear()
    rho = DensityOperator(np.diag([0.4, 0.6]))
    assert len(calls) == 0
    assert rho.spectrum().w.tolist() == [0.6, 0.4] and len(calls) == 1


def test_pd_solves_at_construction(monkeypatch):
    calls = _counting_solves(monkeypatch)
    b = PdOperator(np.diag([2.0, 1.0]))
    assert len(calls) == 1
    b.spectrum()
    assert len(calls) == 1
    NonsingularDensity(np.diag([0.5, 0.5]))
    assert len(calls) == 2


def test_a_failed_certificate_keeps_the_eigenvalue_tests_spectrum(monkeypatch):
    monkeypatch.setattr(operators, "_cholesky_certifies_psd", lambda m, rel: False)
    calls = _counting_solves(monkeypatch)
    a = PsdOperator(np.diag([1.0, 0.0]))
    assert len(calls) == 1
    assert a.spectrum().w.tolist() == [1.0, 0.0] and len(calls) == 1
    with pytest.raises(NotPositiveSemidefinite, match="eigenvalue -1.000e-03 below"):
        PsdOperator(np.diag([1.0, -1e-3]))


def test_chi2_solves_only_the_second_argument(monkeypatch):
    calls = _counting_solves(monkeypatch)
    rng = np.random.default_rng(70)
    a_mat = random_psd(4, rng, rank=2).mat
    b_mat = random_pd(4, rng).mat
    s_mat = _with_spectrum([1.0, 0.5, 0.0, 0.0], rng)
    calls.clear()
    chi2(PsdOperator(a_mat), PdOperator(b_mat), 0.5)
    assert len(calls) == 1
    calls.clear()
    assert chi2_extended(PsdOperator(a_mat), PsdOperator(s_mat), 0.5).is_infinite
    assert len(calls) == 1
    calls.clear()
    assert chi2_extended(PsdOperator(s_mat / 2), PsdOperator(s_mat), 0.5).is_finite
    assert len(calls) == 1


def _half_rank(d, rng):
    """A PSD operator of rank d/2 (at least 1) on the first columns of a Haar
    unitary, and those columns."""
    r = max(1, d // 2)
    u = haar_unitary(d, rng)
    return PsdOperator((u[:, :r] * rng.uniform(0.25, 1.25, r)) @ u[:, :r].conj().T), u[:, :r]


@pytest.mark.parametrize("d", [4, 8, 16])
def test_psd_input_is_certified_and_its_support_decided_without_an_svd(monkeypatch, d):
    rng = np.random.default_rng(80 + d)
    svds = _counted(monkeypatch, operators, "op_norm")
    factors = _counted(monkeypatch, operators, "_cholesky_or_nan")
    b, cols = _half_rank(d, rng)
    r = cols.shape[1]
    assert len(factors) == 1
    for rank in range(1, d + 1):
        leaking = PsdOperator(random_psd(d, rng, rank=rank).mat)
        x = random_psd(r, rng, rank=min(rank, r)).mat
        contained = PsdOperator(cols @ x @ cols.conj().T)
        assert len(factors) == 1 + 2 * rank
        assert chi2_extended(leaking, b, 0.5).is_infinite
        assert chi2_extended(contained, b, 0.5).is_finite
    assert len(svds) == 0


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_certificate_between_the_two_shifts_takes_one_svd(monkeypatch, d):
    # max |m_ii| < lmax makes the first shift s1 smaller than the full one s;
    # an lmin between -s and -s1 fails the first factor and passes the second
    rng = np.random.default_rng(90 + d)
    svds = _counted(monkeypatch, operators, "op_norm")
    factors = _counted(monkeypatch, operators, "_cholesky_or_nan")
    lmax = 3.0
    s = DEFAULT_TOL.psd * lmax
    for lmin_over_s, accept in ((-0.9, True), (-1.5, False)):
        w = np.concatenate([[lmax], rng.uniform(0.0, lmax, d - 2), [0.0]])
        u = haar_unitary(d, rng)
        m = (u * w) @ u.conj().T
        s1 = DEFAULT_TOL.psd * max(1.0, np.abs(np.diag(m)).max())
        assert s1 < 0.9 * s
        m = hermitian_part(m + lmin_over_s * s * np.outer(u[:, -1], u[:, -1].conj()))
        svds.clear()
        factors.clear()
        assert _cholesky_certifies_psd(m, DEFAULT_TOL.psd) == accept
        assert len(svds) == 1 and len(factors) == 2
        _assert_decided_as_by_eigenvalues(m, accept)


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_a_leak_between_the_frobenius_bounds_is_decided_by_the_svd(monkeypatch, d):
    # A = lam v v* with v = sqrt(1 - t) s + sqrt(t) k, s in supp B and k in its
    # kernel: the leak has ||X||_op = ||X||_F = lam t, placed just inside and
    # just outside tol.support * max(1, ||A||_op)
    rng = np.random.default_rng(100 + d)
    svds = _counted(monkeypatch, operators, "op_norm")
    tau = DEFAULT_TOL.support
    b, cols = _half_rank(d, rng)
    comp = np.eye(d) - support_projection(b)
    s = _unit_rows(cols @ (rng.standard_normal(cols.shape[1]) + 1j * rng.standard_normal(cols.shape[1])))
    k = _unit_rows(comp @ (rng.standard_normal(d) + 1j * rng.standard_normal(d)))
    for lam in (3.0, 1e3):
        for side, contained in ((-1e-3, True), (1e-3, False)):
            t = tau * (1.0 + side)
            a = PsdOperator(lam * np.outer(v := np.sqrt(1.0 - t) * s + np.sqrt(t) * k, v.conj()))
            x = comp @ a.mat @ comp
            # neither Frobenius bound decides
            assert hs_norm(x) > tau * max(1.0, np.abs(np.diag(a.mat)).max())
            assert hs_norm(x) / np.sqrt(d) <= tau * max(1.0, hs_norm(a.mat))
            leak = np.linalg.norm(x, 2)
            assert (leak <= tau or leak <= tau * np.linalg.norm(a.mat, 2)) == contained
            svds.clear()
            assert support_contained(a, b) == contained
            assert len(svds) == 2
            assert chi2_extended(a, b, 0.5).is_finite == contained


def _value_or_error(fn):
    """``fn()``'s finite value, None for the tagged infinity, or the message of
    the ValueError it raises."""
    try:
        value = fn()
    except ValueError as err:
        return str(err)
    return value if isinstance(value, float) else None if value.is_infinite else value.value


@pytest.mark.filterwarnings("error")
def test_support_at_extreme_scales_is_decided_as_by_the_operator_norms():
    # squaring entries of 1e300 overflows: the Frobenius bounds must prescale
    rng = np.random.default_rng(110)
    tau = DEFAULT_TOL.support
    for d in (2, 4, 8):
        b, cols = _half_rank(d, rng)
        comp = np.eye(d) - support_projection(b)
        inside = cols @ random_psd(cols.shape[1], rng).mat @ cols.conj().T
        for a0, contained in ((inside, True), (random_psd(d, rng, rank=d // 2).mat, False)):
            unit = a0 / op_norm(a0)
            for scale in (1e-170, 1e150, 1e300, 1.7e308):
                a = PsdOperator(scale * (unit if scale == 1.7e308 else a0))
                leak = op_norm(comp @ a.mat @ comp)
                rule = leak <= tau or leak <= tau * op_norm(a.mat)
                # at 1e-170 the absolute floor admits any leak
                assert rule == (contained or scale == 1e-170)
                assert support_contained(a, b) == rule
                # the value is the kernel's on the support, as before the bounds
                want = _value_or_error(lambda: float(_finite_gram(
                    a.mat - b.mat, b.spectrum(), 0.5, b.tol.support, pseudo=True))) if rule else None
                assert _value_or_error(lambda: chi2_extended(a, b, 0.5)) == want
