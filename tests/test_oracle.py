import numpy as np
import pytest

from chi2lab import (
    DimensionMismatch,
    DivergenceOracle,
    NotPositiveDefinite,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    chi2,
    chi2_oracle,
    chi2_shifted,
    probe_state,
    rank_one_query_oracle,
)
from chi2lab.ensembles import random_nonsingular_density, random_pd, random_psd
from chi2lab.operators import _unchecked

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def test_counter_increments():
    oracle = DivergenceOracle(lambda x: 1.0)
    assert oracle.count == 0
    oracle.query(None)
    oracle.query(None)
    assert oracle.count == 2


def test_exact_oracle_matches_divergence():
    rng = np.random.default_rng(0)
    hidden = random_psd(3, rng)
    probe = random_pd(3, rng)
    oracle = chi2_oracle(hidden, 0.5)
    assert abs(oracle.query(probe) - chi2(hidden, probe, 0.5)) <= 1e-12


def test_rank_one_oracle_matches():
    d = PdOperator(np.diag([0.6, 0.4]))
    oracle = rank_one_query_oracle(d, 0.25)
    r = RankOneProjection([1.0, 1.0])
    assert abs(oracle.query(r) - chi2_shifted(r, d, 0.25)) <= 1e-12


def test_noise_is_seeded_and_additive():
    base = lambda x: 2.0
    a = DivergenceOracle(base, noise_sigma=0.1, seed=7)
    b = DivergenceOracle(base, noise_sigma=0.1, seed=7)
    va = [a.query(None) for _ in range(5)]
    vb = [b.query(None) for _ in range(5)]
    assert va == vb
    assert any(abs(v - 2.0) > 1e-6 for v in va)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_noise_sigma_must_be_finite_and_nonnegative(sigma):
    # nan would pass every comparison and give a silently noiseless oracle;
    # inf would turn every answer into inf
    with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
        DivergenceOracle(lambda x: 1.0, noise_sigma=sigma)
    with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
        chi2_oracle(random_psd(2, np.random.default_rng(0)), 0.5, noise_sigma=sigma)


@pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
def test_bad_order_raises_when_the_oracle_is_built(alpha):
    hidden = random_nonsingular_density(2, np.random.default_rng(0))
    for build in (chi2_oracle, rank_one_query_oracle):
        with pytest.raises(ValueError, match="alpha must lie in"):
            build(hidden, alpha)


def test_rank_one_oracle_checks_the_hidden_operator_when_built():
    singular = _unchecked(PdOperator, np.diag([1.0, 0.0]))
    with pytest.raises(NotPositiveDefinite):
        rank_one_query_oracle(singular, 0.5)


def test_probe_checks_run_on_every_query():
    hidden = random_nonsingular_density(3, np.random.default_rng(1))
    tomo, peel = chi2_oracle(hidden, 0.5), rank_one_query_oracle(hidden, 0.5)
    singular = PsdOperator(np.diag([1.0, 0.5, 0.0]))
    for k in range(1, 3):
        with pytest.raises(DimensionMismatch):
            tomo.query(random_pd(2, np.random.default_rng(k)))
        with pytest.raises(NotPositiveDefinite):
            tomo.query(singular)
        with pytest.raises(DimensionMismatch):
            peel.query(RankOneProjection([1.0, 1.0]))
        # the counter moves before the query is evaluated
        assert (tomo.count, peel.count) == (2 * k, k)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_oracle_values_equal_the_public_functions_bit_for_bit(d):
    rng = np.random.default_rng(70 + d)
    hidden = random_nonsingular_density(d, rng)
    states = [random_pd(d, rng) for _ in range(3)]
    states += [probe_state(RankOneProjection(rng.standard_normal(d)), t, d) for t in (0.2, 0.7)]
    rank_ones = [
        RankOneProjection(rng.standard_normal(d) + 1j * rng.standard_normal(d)) for _ in range(5)
    ]
    for alpha in ALPHAS:
        tomo, peel = chi2_oracle(hidden, alpha), rank_one_query_oracle(hidden, alpha)
        for c in states:
            assert tomo.query(c) == chi2(hidden, c, alpha)
        for r in rank_ones:
            assert peel.query(r) == chi2_shifted(r, hidden, alpha)
