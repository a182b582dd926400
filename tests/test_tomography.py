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
from chi2lab.ensembles import random_nonsingular_density, random_psd
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
        assert oracle.count == d * d * 3


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
    # halves of 2 and 1 weights, or of 3 and 2: each half needs 3, and the
    # schedule is rejected before any query
    rng = np.random.default_rng(0)
    hidden = random_psd(2, rng)
    oracle = chi2_oracle(hidden, 0.25)
    for ts in ((0.2, 0.4, 0.6), (0.1, 0.2, 0.4, 0.6, 0.8)):
        with pytest.raises(ValueError):
            quadratic_form_tomography(oracle, 2, 0.25, ProbeSchedule(ts))
    assert oracle.count == 0


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
    term outside the model, which fails the fit check.  Each probe is
    queried at the weights of its half of the schedule."""
    halves = (schedule.t_values[0::2], schedule.t_values[1::2])

    def answer(c):
        probe, j = divmod(oracle.count - 1, 3)
        t = halves[probe % 2][j]
        value = numpy_chi2(hidden.mat, c.mat, alpha)
        if probe == negated:
            return -value
        return value + t ** 4 if probe == bent else value

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
    assert oracle.count == 12


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
        assert cold[1] == 3 * d * d


def test_probe_state_cache_keeps_only_the_latest_design():
    rng = np.random.default_rng(8)
    for d in (2, 3):
        quadratic_form_tomography(chi2_oracle(random_psd(d, rng), 0.5), d, 0.5)
    assert tomography._probe_states.cache_info().currsize == 1


def test_cached_probe_states_are_todays_read_only_states():
    ts = ProbeSchedule().t_values
    states = tomography._probe_states(3, ts, DEFAULT_TOL)
    assert tomography._probe_states(3, ts, DEFAULT_TOL) is states
    for i, (p, row) in enumerate(zip(projection_family(3), states)):
        assert len(row) == 3
        for t, c in zip(ts[i % 2::2], row):
            assert c.mat.tobytes() == probe_state(p, t, 3).mat.tobytes()
            spec = c.spectrum()
            assert all(not a.flags.writeable for a in (c.mat, spec.w, spec.v))


def test_fit_design_is_built_once_and_read_only():
    from chi2lab.divergence import Alpha

    ts = ProbeSchedule().t_values
    design = tomography._design(6, Alpha(0.25), ts)
    assert tomography._design(6, Alpha(0.25), ts) is design
    assert len(design) == 2
    for half in design:
        assert all(not m.flags.writeable for m in half)


def test_probe_state_rejects_a_dimension_below_two():
    from chi2lab import RankOneProjection

    with pytest.raises(ValueError):
        probe_state(RankOneProjection([1.0, 0.0, 0.0]), 0.3, 1)


def test_probe_state_rejects_a_projection_of_another_dimension():
    from chi2lab import DimensionMismatch, RankOneProjection

    with pytest.raises(DimensionMismatch):
        probe_state(RankOneProjection([1.0, 0.0, 0.0]), 0.3, 4)


def _dense_reference(oracle, d, alpha):
    """Tomography by one dense least-squares solve of the whole
    ``(3 d^2, 2 d^2 + 2)`` system: columns ``[1, tr A^2]`` shared by every
    probe, then ``[x_P, y_P]`` per probe, written as

        r_P(t) = (1 - 2 tr A) + (d - 1)/(1 - t) tr A^2
                 + (t^-a - s^-a)(t^(a-1) - s^(a-1)) x_P
                 + (f(t) - 2 (d - 1)/(1 - t)) y_P,

    with the probe states of ``probe_state`` queried in the library's
    order (probe p at weights ``ts[p % 2::2]``).  At the endpoints the
    ``x_P`` column is exactly zero, the minimum-norm solve sets ``x_P = 0``,
    and A is the square root of the operator with overlaps ``y_P``."""
    ts = ProbeSchedule().t_values
    n = d * d
    design, values = [], []
    for p, proj in enumerate(projection_family(d)):
        for t in ts[p % 2::2]:
            s = (1.0 - t) / (d - 1)
            f = t ** -alpha * s ** (alpha - 1.0) + s ** -alpha * t ** (alpha - 1.0)
            row = np.zeros(2 * n + 2)
            row[:2] = 1.0, 1.0 / s
            row[2 + 2 * p] = (t ** -alpha - s ** -alpha) * (t ** (alpha - 1.0) - s ** (alpha - 1.0))
            row[3 + 2 * p] = f - 2.0 / s
            design.append(row)
            values.append(oracle.query(probe_state(proj, t, d)))
    coef = np.linalg.lstsq(np.array(design), np.array(values), rcond=None)[0]
    x, y = coef[2::2], coef[3::2]
    if alpha in (0.0, 1.0):
        w, v = np.linalg.eigh(operators.hermitian_from_overlaps(y, d).mat)
        return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    return operators.hermitian_from_overlaps(np.sqrt(np.maximum(x, 0.0)), d).mat


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_joint_fit_matches_a_dense_least_squares_reference(d, alpha):
    hidden = random_nonsingular_density(d, np.random.default_rng(70 + d))
    got = quadratic_form_tomography(chi2_oracle(hidden, alpha), d, alpha).mat
    want = _dense_reference(chi2_oracle(hidden, alpha), d, alpha)
    assert op_norm(got - want) <= 1e-10 * op_norm(want)


@pytest.mark.parametrize("d, ts, queries", [
    (2, None, 12), (3, None, 27), (4, None, 48), (6, None, 108), (8, None, 192),
    # seven weights: halves of 4 and 3, for 5 and 4 probes
    (3, (0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9), 32),
])
def test_query_counts_are_exact(d, ts, queries):
    hidden = random_nonsingular_density(d, np.random.default_rng(d))
    oracle = chi2_oracle(hidden, 0.25)
    schedule = ProbeSchedule(ts) if ts else None
    rec = quadratic_form_tomography(oracle, d, 0.25, schedule)
    assert oracle.count == queries
    assert op_norm(rec.mat - hidden.mat) <= 1e-9


def test_noisy_oracle_draws_one_normal_per_query():
    d = 4
    hidden = random_nonsingular_density(d, np.random.default_rng(11))
    outputs = []
    for _ in range(2):
        oracle = chi2_oracle(hidden, 0.5, noise_sigma=1e-9, seed=5)
        outputs.append(quadratic_form_tomography(oracle, d, 0.5).mat.tobytes())
        ref = np.random.default_rng(5)
        ref.standard_normal(3 * d * d)
        assert oracle._rng.bit_generator.state == ref.bit_generator.state
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_low_rank_recovery_at_the_endpoints_d8(alpha):
    rng = np.random.default_rng(80)
    for rank in (1, 3, 5):
        hidden = random_psd(8, rng, rank=rank)
        rec = quadratic_form_tomography(chi2_oracle(hidden, alpha), 8, alpha)
        assert op_norm(rec.mat - hidden.mat) <= 1e-9 * op_norm(hidden.mat)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("d, probe", [(3, 0), (3, 4), (3, 8), (4, 1), (4, 10)])
def test_a_single_faulty_probe_is_the_one_named(d, probe, alpha):
    # a faulty probe drags the shared constant and tr A^2 and misfits its
    # whole half; the refit on the halves' medians names it alone
    hidden = random_nonsingular_density(d, np.random.default_rng(d))
    schedule = ProbeSchedule()
    for negated, bent, error in ((probe, None, InconsistentOracle),
                                 (None, probe, IllConditionedProbe)):
        oracle = _faulty_oracle(hidden, alpha, negated, bent, schedule)
        with pytest.raises(error, match=rf"^probe {probe}: "):
            quadratic_form_tomography(oracle, d, alpha, schedule)
        assert oracle.count == 3 * d * d


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_a_weight_of_one_over_d_does_not_count(alpha):
    # at t = 1/d every probe state is I/d: (0.5, 0.3, 0.6) leaves two
    # weights that tell the probes apart at d = 2
    hidden = random_nonsingular_density(2, np.random.default_rng(2))
    oracle = chi2_oracle(hidden, alpha)
    with pytest.raises(ValueError, match="other than 1/d"):
        quadratic_form_tomography(oracle, 2, alpha, ProbeSchedule((0.5, 0.2, 0.3, 0.4, 0.6, 0.7)))
    assert oracle.count == 0
    # one more weight is enough; the fit pivots away from the vanishing row
    for d, ts in ((2, (0.5, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8)),
                  (3, (1.0 / 3.0, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9))):
        hidden = random_nonsingular_density(d, np.random.default_rng(d))
        rec = quadratic_form_tomography(chi2_oracle(hidden, alpha), d, alpha, ProbeSchedule(ts))
        assert op_norm(rec.mat - hidden.mat) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_noisy_estimates_of_singular_operators_stay_positive(d):
    # about half of these seeds push an eigenvalue of the raw estimate
    # below the PSD floor; the nearest positive operator is returned
    hidden = random_psd(d, np.random.default_rng(60 + d))
    assert np.linalg.eigvalsh(hidden.mat)[0] < 1e-12
    for seed in range(20):
        oracle = chi2_oracle(hidden, 0.25, noise_sigma=1e-9, seed=seed)
        rec = quadratic_form_tomography(oracle, d, 0.25)
        assert np.linalg.eigvalsh(rec.mat)[0] >= -1e-15
        assert op_norm(rec.mat - hidden.mat) <= 1e-6


@pytest.mark.parametrize("alpha", [0.25, 0.5])
def test_low_rank_recovery_inside_the_orders_d8(alpha):
    # d = 8, a = 1/2 is where the halves alone fit the shared pair worst
    for seed in range(800, 806):
        for rank in (1, 2, 4):
            hidden = random_psd(8, np.random.default_rng(seed), rank=rank)
            rec = quadratic_form_tomography(chi2_oracle(hidden, alpha), 8, alpha)
            assert op_norm(rec.mat - hidden.mat) <= 1e-9 * op_norm(hidden.mat)
