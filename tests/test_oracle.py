import numpy as np
import pytest

from chi2lab import (
    DivergenceOracle,
    PdOperator,
    RankOneProjection,
    chi2,
    chi2_oracle,
    chi2_shifted,
    rank_one_query_oracle,
)
from chi2lab.ensembles import random_pd, random_psd


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
