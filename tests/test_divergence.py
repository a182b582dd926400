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
)
from chi2lab.divergence import _query_stack
from chi2lab.ensembles import (
    haar_unitary,
    random_nonsingular_density,
    random_pd,
    random_psd,
)
from chi2lab.linalg import SpectralDecomposition
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
    with pytest.raises(ValueError):
        DivergenceValue.finite(-1.0)
    with pytest.raises(ValueError):
        DivergenceValue.infinite().value
