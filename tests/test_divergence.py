import numpy as np
import pytest

from chi2lab import (
    Alpha,
    DimensionMismatch,
    DivergenceValue,
    NotPositiveDefinite,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    chi2,
    chi2_extended,
    chi2_limit_probe,
    chi2_shifted,
    quadratic_relative_entropy,
    rank_one_query_oracle,
)
from chi2lab.divergence import _gram_value, _query_powers, _query_stack, _shifted_values
from chi2lab.ensembles import (
    haar_unitary,
    hermitian_stack,
    nonsingular_density_stack,
    pd_stack,
    psd_stack,
    random_hermitian,
    random_nonsingular_density,
    random_pd,
    random_psd,
    unit_vector_stack,
)
from chi2lab.linalg import SpectralDecomposition, _dots
from chi2lab.operators import NonsingularDensity, _unchecked


def reference_chi2(a, b, alpha):
    """Independent route: raw trace formula through numpy's eigensolver."""
    w, v = np.linalg.eigh(b)
    b_neg = (v * w**-alpha) @ v.conj().T
    b_one = (v * w ** (alpha - 1.0)) @ v.conj().T
    diff = a - b
    return float(np.trace(b_neg @ diff @ b_one @ diff).real)


def test_identity_of_indiscernibles():
    eye = PdOperator(np.eye(2))
    assert chi2(eye, eye, 0.5) == 0.0


def test_scaled_identity():
    a = PdOperator(3 * np.eye(2))
    b = PdOperator(np.eye(2))
    for alpha in (0.0, 0.3, 1.0):
        assert abs(chi2(a, b, alpha) - 8.0) < 1e-12


def test_counterexample_closed_form_n1():
    # B = [[2,3],[3,5]] is the square of [[1,1],[1,2]]; divergence of
    # diag(1,0) against it at order 0 equals 10 exactly
    p = PsdOperator(np.diag([1.0, 0.0]))
    b = PdOperator([[2.0, 3.0], [3.0, 5.0]])
    assert abs(chi2(p, b, 0.0) - 10.0) < 1e-9


def test_commuting_closed_form_alpha_free():
    a = PdOperator(np.diag([2.0, 1.0]))
    b = PdOperator(np.diag([1.0, 2.0]))
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(chi2(a, b, alpha) - 1.5) < 1e-12


def test_chi2_matches_independent_route():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        a = random_psd(d, rng)
        b = random_pd(d, rng)
        alpha = float(rng.uniform(0.0, 1.0))
        got = chi2(a, b, alpha)
        ref = reference_chi2(a.mat, b.mat, alpha)
        assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))


def test_chi2_requires_pd_second():
    with pytest.raises(NotPositiveDefinite):
        chi2(PsdOperator(np.eye(2)), PsdOperator(np.diag([1.0, 0.0])), 0.5)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        chi2(PsdOperator(np.eye(2)), PdOperator(np.eye(3)), 0.5)


def test_alpha_validation():
    with pytest.raises(ValueError):
        Alpha(1.5)
    with pytest.raises(ValueError):
        chi2(PsdOperator(np.eye(2)), PdOperator(np.eye(2)), -0.1)


def test_alpha_endpoint_window():
    for a in (0.0, 1e-9, 1.0 - 1e-9, 1.0):
        assert Alpha(a).is_endpoint
    for a in (2e-9, 0.25, 0.5, 1.0 - 2e-9):
        assert not Alpha(a).is_endpoint


def test_quadratic_relative_entropy_alias():
    rng = np.random.default_rng(4)
    a = random_psd(2, rng)
    b = random_pd(2, rng)
    assert quadratic_relative_entropy(a, b) == chi2(a, b, 0.0)


def test_extended_rank_one_self():
    p = RankOneProjection([1.0, 0.0])
    op = PsdOperator(p.matrix)
    value = chi2_extended(op, op, 0.7)
    assert value.is_finite and value.value == 0.0


def test_extended_infinite_branch():
    eye = PsdOperator(np.eye(2))
    p = PsdOperator(np.diag([1.0, 0.0]))
    assert chi2_extended(eye, p, 0.5).is_infinite


def test_extended_on_support_value():
    a = PsdOperator(np.diag([2.0, 0.0]))
    b = PsdOperator(np.diag([1.0, 0.0]))
    for alpha in (0.0, 0.5, 1.0):
        value = chi2_extended(a, b, alpha)
        assert value.is_finite
        assert abs(value.value - 1.0) < 1e-12


@pytest.mark.filterwarnings("error")
def test_squares_past_the_float_maximum_do_not_overflow_the_value():
    # |X_ij|^2 = 1e400 overflows; the value 2 * 1e400 / 1e100 does not
    a = PsdOperator(np.diag([1e200, 1e200]))
    assert chi2(a, PdOperator(1e100 * np.eye(2)), 0.5) == 2e300
    assert chi2_extended(a, PsdOperator(np.diag([1e100, 1e100])), 0.5).value == 2e300
    # 1e616 itself exceeds the float maximum
    with pytest.raises(ValueError, match="exceeds the float maximum"):
        chi2_extended(PsdOperator(np.diag([1e308, 0.0])), PsdOperator(np.diag([1.0, 0.0])), 0.5)
    with pytest.raises(ValueError, match="exceeds the float maximum"):
        chi2(PsdOperator(np.diag([1e300, 1e300])), PdOperator(1e100 * np.eye(2)), 0.5)


@pytest.mark.filterwarnings("error")
def test_limit_probe_slices_past_the_float_maximum_do_not_overflow():
    # the stacked probe rescales only the slices whose squares overflow,
    # as chi2 does: 2 * 1e400 / 1e100 against B + eps I, eps far below 1e100
    a = PsdOperator(np.diag([1e200, 1e200]))
    values = chi2_limit_probe(a, PsdOperator(1e100 * np.eye(2)), 0.5, [1e-2, 1e-4])
    want = chi2(a, PdOperator(1e100 * np.eye(2)), 0.5)
    assert all(abs(v - want) <= 1e-15 * want for v in values)
    assert abs(want - 2e300) <= 1e-15 * 2e300
    with pytest.raises(ValueError, match="exceeds the float maximum"):
        chi2_limit_probe(PsdOperator(np.diag([1e300, 1e300])), PsdOperator(1e100 * np.eye(2)),
                         0.5, [1e-2])


def test_extended_agrees_with_chi2_on_pd():
    rng = np.random.default_rng(9)
    a = random_psd(3, rng)
    b = random_pd(3, rng)
    ext = chi2_extended(a, b, 0.25)
    assert abs(ext.value - chi2(a, b, 0.25)) < 1e-12


def test_limit_probe_trivial():
    p = PsdOperator(np.diag([1.0, 0.0]))
    values = chi2_limit_probe(p, p, 0.5, (1e-1, 1e-3, 1e-6))
    assert values[-1] < 1e-5
    assert values == sorted(values, reverse=True)


def test_limit_probe_unbounded_growth():
    # A = P + (1/3) I has full support, so against P the probes blow up
    p = PsdOperator(np.diag([1.0, 0.0]))
    a = PsdOperator(p.mat + np.eye(2) / 3.0)
    values = chi2_limit_probe(a, p, 0.5, (1e-2, 1e-4, 1e-6))
    assert values[0] < values[1] < values[2]
    assert values[-1] > 1e4


def test_limit_probe_tail_matches_extended():
    a = PsdOperator(np.diag([2.0, 0.0]))
    b = PsdOperator(np.diag([1.0, 0.0]))
    values = chi2_limit_probe(a, b, 0.3, (1e-2, 1e-4, 1e-6))
    assert abs(values[-1] - chi2_extended(a, b, 0.3).value) <= 1e-4


def test_limit_probe_schedule_validation():
    p = PsdOperator(np.eye(2))
    with pytest.raises(ValueError):
        chi2_limit_probe(p, p, 0.5, ())
    with pytest.raises(ValueError):
        chi2_limit_probe(p, p, 0.5, (1e-3, 1e-2))
    with pytest.raises(ValueError):
        chi2_limit_probe(p, p, 0.5, (1e-4, 1e-9))


def test_shifted_extremal_values():
    d = PdOperator(np.diag([0.7, 0.3]))
    e1 = RankOneProjection([1.0, 0.0])
    e2 = RankOneProjection([0.0, 1.0])
    for alpha in (0.0, 0.5, 1.0):
        assert abs(chi2_shifted(e1, d, alpha) - 1 / 0.7) < 1e-12
        assert abs(chi2_shifted(e2, d, alpha) - 1 / 0.3) < 1e-12


def test_shifted_superposition_value():
    # ((0.7^-1/2 + 0.3^-1/2)/2)^2, evaluated independently
    d = PdOperator(np.diag([0.7, 0.3]))
    r = RankOneProjection(np.array([1.0, 1.0]) / np.sqrt(2))
    expected = ((0.7**-0.5 + 0.3**-0.5) / 2.0) ** 2
    assert abs(chi2_shifted(r, d, 0.5) - expected) < 1e-12
    assert abs(expected - 2.281565641656153) < 1e-12


def test_shifted_consistency_with_chi2():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        dens = random_nonsingular_density(d, rng)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        r = RankOneProjection(v)
        direct = chi2(PsdOperator(r.matrix), dens, 0.25) + 1.0
        assert abs(chi2_shifted(r, dens, 0.25) - direct) <= 1e-10


def _degenerate_state(rng):
    # eigenvalue 0.35 has multiplicity 2
    u = haar_unitary(4, rng)
    return NonsingularDensity((u * np.array([0.35, 0.35, 0.2, 0.1])) @ u.conj().T)


def test_shifted_matches_eigenprojection_sum():
    rng = np.random.default_rng(9)
    dens = _degenerate_state(rng)
    spec = dens.spectrum()
    assert 2 in spec.multiplicities
    for alpha in (0.0, 1e-9, 0.5, 1.0):
        for _ in range(10):
            v = RankOneProjection(rng.standard_normal(4) + 1j * rng.standard_normal(4)).vector
            s_neg = s_one = 0.0
            for lam, proj in zip(spec.eigenvalues, spec.projections):
                w = max(float(np.vdot(v, proj @ v).real), 0.0)
                s_neg += w * lam ** (-alpha)
                s_one += w * lam ** (alpha - 1.0)
            got = chi2_shifted(RankOneProjection(v), dens, alpha)
            assert abs(got - s_neg * s_one) <= 1e-12 * s_neg * s_one


def test_shifted_query_stack_is_cached_and_read_only():
    dens = random_nonsingular_density(3, np.random.default_rng(1))
    spec = dens.spectrum()
    stack = _query_stack(dens, spec, 0.25)
    assert stack is _query_stack(dens, spec, 0.25)
    assert stack.shape == (6, 3)
    np.testing.assert_allclose(stack[:3], spec.power(-0.25), atol=1e-14)
    np.testing.assert_allclose(stack[3:], spec.power(-0.75), atol=1e-14)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 1.0


def test_shifted_checks_run_on_every_query():
    singular = _unchecked(PdOperator, np.diag([1.0, 0.0]))
    r = RankOneProjection([1.0, 1.0])
    for _ in range(2):
        with pytest.raises(NotPositiveDefinite):
            chi2_shifted(r, singular, 0.5)
    assert "_query_stacks" not in singular.__dict__
    dens = random_nonsingular_density(3, np.random.default_rng(2))
    chi2_shifted(RankOneProjection([1.0, 0.0, 0.0]), dens, 0.5)
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            chi2_shifted(r, dens, 0.5)
        with pytest.raises(ValueError):
            chi2_shifted(RankOneProjection([1.0, 0.0, 0.0]), dens, 1.5)


def test_repeated_queries_cost_one_factorization(monkeypatch):
    import chi2lab.linalg as linalg

    calls = {"jacobi": 0, "power": 0}
    jacobi, power = linalg.jacobi_eigh, SpectralDecomposition.power

    def counted_jacobi(*args, **kwargs):
        calls["jacobi"] += 1
        return jacobi(*args, **kwargs)

    def counted_power(self, *args, **kwargs):
        calls["power"] += 1
        return power(self, *args, **kwargs)

    rng = np.random.default_rng(3)
    probes = [RankOneProjection(rng.standard_normal(4) + 1j * rng.standard_normal(4))
              for _ in range(50)]
    mat = random_nonsingular_density(4, rng).mat
    monkeypatch.setattr(linalg, "jacobi_eigh", counted_jacobi)
    monkeypatch.setattr(SpectralDecomposition, "power", counted_power)
    dens = NonsingularDensity(mat)
    assert calls["jacobi"] == 1
    for alpha in (0.25, 0.75):
        for r in probes:
            chi2_shifted(r, dens, alpha)
    assert calls == {"jacobi": 1, "power": 4}


def test_divergence_value_tagging():
    assert str(DivergenceValue.infinite()) == "inf"
    assert DivergenceValue.finite(-1e-12).value == 0.0
    # a finite value is a finite float: infinity is only the tagged value
    for amount in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            DivergenceValue.finite(amount)
    with pytest.raises(ValueError):
        DivergenceValue.infinite().value


# The Gram kernel before it moved to B's eigenbasis: two assembled powers
# and the sandwich B^((alpha-1)/2) diff B^(-alpha/2), kept as a reference.
def _sandwich(diff, spec, alpha, support_rel, pseudo):
    left = spec.power((alpha - 1.0) / 2.0, pseudo=pseudo, support_rel=support_rel)
    right = spec.power(-alpha / 2.0, pseudo=pseudo, support_rel=support_rel)
    t = left @ diff @ right
    t = t.reshape(*t.shape[:-2], -1)
    return _dots(t, t).real


_KERNEL_ALPHAS = (0.0, 1e-7, 0.25, 0.5, 0.75, 1.0 - 1e-7, 1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 16])
def test_stacked_gram_value_slices_equal_their_2d_calls(d):
    rng = np.random.default_rng(40 + d)
    col = np.concatenate([_KERNEL_ALPHAS, rng.uniform(0.0, 1.0, 33)])[:, None]
    n = len(col)
    b, bs = pd_stack(d, rng, n)
    a, _ = psd_stack(d, rng, n)
    sing, ss = psd_stack(d, rng, n, rank=d - 1)
    for diff, spec, pseudo in ((a - b, bs, False), (a - sing, ss, True)):
        by_column = _gram_value(diff, spec, col, 1e-10, pseudo)
        by_float = {alpha: _gram_value(diff, spec, alpha, 1e-10, pseudo) for alpha in _KERNEL_ALPHAS}
        for k in range(n):
            one = SpectralDecomposition(spec.w[k], spec.v[k])
            alpha = float(col[k, 0])
            assert by_column[k].tobytes() == _gram_value(diff[k], one, alpha, 1e-10, pseudo).tobytes()
            for alpha, stacked in by_float.items():
                assert stacked[k].tobytes() == _gram_value(diff[k], one, alpha, 1e-10, pseudo).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 6, 16])
def test_stacked_shifted_values_slices_equal_their_one_vector_calls(d):
    rng = np.random.default_rng(50 + d)
    n = 40
    _, spec = nonsingular_density_stack(d, rng, n)
    v = unit_vector_stack(d, rng, n)
    for alpha in _KERNEL_ALPHAS:
        stacks = _query_powers(spec, alpha)
        stacked = _shifted_values(stacks, v)
        for k in range(n):
            one = _shifted_values(stacks[k], v[k])
            assert stacked[k].tobytes() == np.float64(one).tobytes()


def test_noisy_rank_one_oracle_adds_one_seeded_draw_per_query_in_order():
    rng = np.random.default_rng(6)
    hidden = random_nonsingular_density(4, rng)
    probes = [RankOneProjection(rng.standard_normal(4) + 1j * rng.standard_normal(4))
              for _ in range(25)]
    sigma, seed = 1e-3, 17
    exact = np.array([chi2_shifted(r, hidden, 0.25) for r in probes])
    oracle = rank_one_query_oracle(hidden, 0.25, noise_sigma=sigma, seed=seed)
    got = np.array([oracle.query(r) for r in probes])
    want = exact + sigma * np.random.default_rng(seed).standard_normal(len(probes))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(2, 17))
def test_gram_value_agrees_with_the_sandwich_form(d):
    rng = np.random.default_rng(60 + d)
    n = 6
    b, bs = pd_stack(d, rng, n)
    a, _ = psd_stack(d, rng, n)
    sing, ss = psd_stack(d, rng, n, rank=max(1, d // 2))
    for alpha in _KERNEL_ALPHAS:
        for diff, spec, pseudo in ((a - b, bs, False), (a - sing, ss, True)):
            got = _gram_value(diff, spec, alpha, 1e-10, pseudo)
            want = _sandwich(diff, spec, alpha, 1e-10, pseudo)
            assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_self_divergence_is_exactly_zero():
    rng = np.random.default_rng(70)
    for d in (1, 2, 5, 16):
        b = random_pd(d, rng)
        for alpha in _KERNEL_ALPHAS:
            assert chi2(b, b, alpha) == 0.0
            assert chi2_extended(b, b, alpha).value == 0.0
    _, bs = pd_stack(4, rng, 3)
    assert _gram_value(np.zeros((3, 4, 4)), bs, 0.5, 1e-10, False).tolist() == [0.0] * 3


def test_value_is_nonnegative_next_to_the_diagonal():
    # A = B + 1e-12 H: the divergence is of order 1e-24, far below the
    # rounding of a signed sum, but every term is a product of
    # nonnegative factors
    rng = np.random.default_rng(71)
    for d in (2, 3, 4, 8):
        b, bs = pd_stack(d, rng, 250)
        a = b + 1e-12 * hermitian_stack(d, rng, 250)
        for alpha in (0.0, 0.5, 1.0, np.array(_KERNEL_ALPHAS * 36)[:250, None]):
            values = _gram_value(a - b, bs, alpha, 1e-10, False)
            assert np.all(values >= 0.0) and np.all(values < 1e-20)
    b = random_pd(3, rng)
    a = PsdOperator(b.mat + 1e-12 * random_hermitian(3, rng))
    assert 0.0 <= chi2(a, b, 0.3) < 1e-20


def _singular_pair(d, rank, rng):
    """B of the given rank on the first columns of a Haar unitary U, A on
    the same columns, and the (rank x rank) blocks of both in U's basis."""
    u = haar_unitary(d, rng)
    cols = u[:, :rank]
    b_block = np.diag(rng.uniform(0.25, 1.25, rank)).astype(complex)
    a_block = random_psd(rank, rng).mat
    b = PsdOperator(cols @ b_block @ cols.conj().T)
    a = PsdOperator(cols @ a_block @ cols.conj().T)
    return a, b, a_block, b_block


@pytest.mark.parametrize("d,rank", [(2, 1), (4, 2), (6, 5), (8, 3)])
def test_extended_on_singular_b_equals_the_support_block_formula(d, rank):
    rng = np.random.default_rng(80 + d)
    a, b, a_block, b_block = _singular_pair(d, rank, rng)
    leaking = PsdOperator(a.mat + random_pd(d, rng).mat)
    for alpha in _KERNEL_ALPHAS:
        value = chi2_extended(a, b, alpha)
        want = reference_chi2(a_block, b_block, alpha)
        assert abs(value.value - want) <= 1e-12 * (1.0 + want)
        assert chi2_extended(leaking, b, alpha).is_infinite


def test_limit_probe_tail_approaches_the_extended_value_on_a_random_support():
    rng = np.random.default_rng(90)
    a, b, _, _ = _singular_pair(5, 3, rng)
    spec = b.spectrum()
    for alpha in (0.0, 0.3, 0.5, 1.0):
        target = chi2_extended(a, b, alpha).value
        schedule = (1e-2, 1e-4, 1e-6, 1e-8)
        values = chi2_limit_probe(a, b, alpha, schedule)
        # the stacked probe equals one 2-D evaluation per epsilon
        assert values == [
            float(_gram_value(a.mat - b.mat - e * np.eye(5), spec.shift(e), alpha, 0.0, False))
            for e in schedule
        ]
        gaps = [abs(v - target) for v in values]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] <= 1e-6 * (1.0 + target)


def _mp_chi2(a, b, alpha, dps=50):
    """tr B^-alpha (A - B) B^(alpha-1) (A - B) in mpmath at ``dps`` digits."""
    mpmath = pytest.importorskip("mpmath")
    d = len(a)
    with mpmath.workdps(dps):
        def mp(m):
            out = mpmath.matrix(d, d)
            for i in range(d):
                for j in range(d):
                    out[i, j] = mpmath.mpc(m[i, j].real, m[i, j].imag)
            return out

        w, v = mpmath.eigh(mp(b))
        vh = v.transpose_conj()

        def power(p):
            return v * mpmath.diag([x ** p for x in w]) * vh

        diff = mp(a) - mp(b)
        a_alpha = mpmath.mpf(alpha)
        t = power(-a_alpha) * diff * power(a_alpha - 1) * diff
        return float(mpmath.re(sum(t[i, i] for i in range(d))))


def test_eigenbasis_kernel_is_as_accurate_as_the_sandwich_on_graded_b():
    # graded B = D H D with the eval-fresh grading: 3.75 decades, condition
    # number near 1e7.5; Jacobi keeps B's eigenpairs to high relative
    # accuracy, and the weighted sum of nonnegative terms loses nothing
    # beyond them
    rng = np.random.default_rng(95)
    d = 4
    for _ in range(20):
        grading = 10.0 ** -np.linspace(0.0, 3.75, d)
        grading = grading[rng.permutation(d)]
        b = PdOperator(random_pd(d, rng).mat * np.outer(grading, grading))
        a = random_psd(d, rng)
        spec = b.spectrum()
        for alpha in (0.0, 0.25, 0.5, 1.0):
            ref = _mp_chi2(a.mat, b.mat, alpha)
            new = abs(chi2(a, b, alpha) - ref) / ref
            old = abs(float(_sandwich(a.mat - b.mat, spec, alpha, b.tol.support, False)) - ref) / ref
            assert new <= 2.0 * old + 1e-15
