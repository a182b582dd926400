import numpy as np
import pytest

from chi2lab import (
    DivergenceOracle,
    IllConditionedProbe,
    InconsistentOracle,
    PsdOperator,
    ProbeSchedule,
    chi2_oracle,
    quadratic_form_tomography,
)
from chi2lab import operators, tomography
from chi2lab.config import DEFAULT_TOL
from chi2lab.ensembles import random_psd
from chi2lab.linalg import op_norm
from chi2lab.operators import projection_family
from chi2lab.tomography import probe_state


def numpy_chi2(a, b, alpha):
    w, v = np.linalg.eigh(b)
    b_neg = (v * w**-alpha) @ v.conj().T
    b_one = (v * w ** (alpha - 1.0)) @ v.conj().T
    diff = a - b
    return float(np.trace(b_neg @ diff @ b_one @ diff).real)


def test_probe_state_structure():
    from chi2lab import RankOneProjection

    p = RankOneProjection([1.0, 0.0, 0.0])
    c = probe_state(p, 0.3, 3)
    assert abs(c.trace() - 1.0) < 1e-12
    w = sorted(np.linalg.eigvalsh(c.mat))
    np.testing.assert_allclose(w, [0.3, 0.35, 0.35], atol=1e-12)


def test_recovers_maximally_mixed():
    hidden = PsdOperator(np.eye(3) / 3)
    oracle = chi2_oracle(hidden, 0.5)
    rec = quadratic_form_tomography(oracle, 3, 0.5)
    assert op_norm(rec.mat - hidden.mat) <= 1e-8


def test_recovers_diagonal_alpha_zero():
    hidden = PsdOperator(np.diag([2.0, 1.0]))
    oracle = chi2_oracle(hidden, 0.0)
    rec = quadratic_form_tomography(oracle, 2, 0.0)
    assert op_norm(rec.mat - hidden.mat) <= 1e-7


def test_recovers_random_alpha_half_d3():
    rng = np.random.default_rng(3)
    hidden = random_psd(3, rng)
    oracle = chi2_oracle(hidden, 0.5)
    rec = quadratic_form_tomography(oracle, 3, 0.5)
    assert op_norm(rec.mat - hidden.mat) <= 1e-6


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("d", [2, 3])
def test_round_trip_all_orders(alpha, d):
    rng = np.random.default_rng(int(alpha * 100) + d)
    for _ in range(3):
        hidden = random_psd(d, rng)
        oracle = chi2_oracle(hidden, alpha)
        rec = quadratic_form_tomography(oracle, d, alpha)
        assert op_norm(rec.mat - hidden.mat) <= 1e-6


def test_query_budget_is_deterministic():
    for d in (2, 3):
        rng = np.random.default_rng(d)
        hidden = random_psd(d, rng)
        oracle = chi2_oracle(hidden, 0.5)
        quadratic_form_tomography(oracle, d, 0.5)
        assert oracle.count == d * d * 6


def test_identification_soundness_two_oracles():
    # oracles that agree on all probes must reconstruct the same operator;
    # the second route goes through numpy instead of the library solver
    rng = np.random.default_rng(5)
    hidden = random_psd(3, rng)
    lib_oracle = chi2_oracle(hidden, 0.25)
    indep_oracle = DivergenceOracle(lambda c: numpy_chi2(hidden.mat, c.mat, 0.25))
    rec_a = quadratic_form_tomography(lib_oracle, 3, 0.25)
    rec_b = quadratic_form_tomography(indep_oracle, 3, 0.25)
    assert op_norm(rec_a.mat - rec_b.mat) <= 1e-6


def test_schedule_validation():
    with pytest.raises(ValueError):
        ProbeSchedule(())
    with pytest.raises(ValueError):
        ProbeSchedule((0.2, 0.2))
    with pytest.raises(ValueError):
        ProbeSchedule((0.0, 0.5))
    # too few probes for the five-function basis
    rng = np.random.default_rng(0)
    hidden = random_psd(2, rng)
    oracle = chi2_oracle(hidden, 0.25)
    with pytest.raises(ValueError):
        quadratic_form_tomography(oracle, 2, 0.25, ProbeSchedule((0.2, 0.4, 0.6)))


def test_inconsistent_oracle_detected():
    # a negated divergence fits the probe basis but with a negative
    # quadratic-overlap coefficient, which no positive operator admits
    hidden = PsdOperator(np.diag([2.0, 1.0]))
    oracle = DivergenceOracle(lambda c: -numpy_chi2(hidden.mat, c.mat, 0.5))
    with pytest.raises(InconsistentOracle):
        quadratic_form_tomography(oracle, 2, 0.5)


def _faulty_oracle(hidden, alpha, negated, bent, schedule):
    """Exact answers, except that probe ``negated`` (in family order) is
    negated, which fails the sign check, and probe ``bent`` gets a t^4
    term outside the basis, which fails the fit check."""
    ts = schedule.t_values

    def answer(c):
        probe, t = divmod(oracle.count - 1, len(ts))
        value = numpy_chi2(hidden.mat, c.mat, alpha)
        if probe == negated:
            return -value
        return value + ts[t] ** 4 if probe == bent else value

    oracle = DivergenceOracle(answer)
    return oracle


@pytest.mark.parametrize("negated, bent, error", [
    (1, 3, InconsistentOracle),
    (3, 1, IllConditionedProbe),
])
def test_first_failing_probe_in_family_order_raises(negated, bent, error):
    # every query is made before the fits are checked
    hidden = PsdOperator(np.diag([2.0, 1.0]))
    schedule = ProbeSchedule()
    oracle = _faulty_oracle(hidden, 0.5, negated, bent, schedule)
    with pytest.raises(error, match=r"^probe 1: "):
        quadratic_form_tomography(oracle, 2, 0.5, schedule)
    assert oracle.count == 4 * len(schedule)


def _run(hidden, d, sigma):
    oracle = chi2_oracle(hidden, 0.25, noise_sigma=sigma, seed=3)
    return quadratic_form_tomography(oracle, d, 0.25).mat.tobytes(), oracle.count


@pytest.mark.parametrize("d", [2, 3, 6])
def test_cold_and_warm_probe_states_give_the_same_bytes(d):
    hidden = random_psd(d, np.random.default_rng(60 + d))
    for sigma in (0.0, 1e-9):
        tomography._probe_states.cache_clear()
        operators.projection_family.cache_clear()
        cold = _run(hidden, d, sigma)
        warm = _run(hidden, d, sigma)
        assert cold == warm
        assert cold[1] == d * d * len(ProbeSchedule())


def test_probe_state_cache_keeps_only_the_latest_design():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        quadratic_form_tomography(chi2_oracle(random_psd(d, rng), 0.5), d, 0.5)
    assert tomography._probe_states.cache_info().currsize == 1


def test_cached_probe_states_are_todays_read_only_states():
    ts = ProbeSchedule().t_values
    states = tomography._probe_states(3, ts, DEFAULT_TOL)
    assert tomography._probe_states(3, ts, DEFAULT_TOL) is states
    for p, row in zip(projection_family(3), states):
        for t, c in zip(ts, row):
            assert c.mat.tobytes() == probe_state(p, t, 3).mat.tobytes()
            spec = c.spectrum()
            assert all(not a.flags.writeable for a in (c.mat, spec.w, spec.v))
