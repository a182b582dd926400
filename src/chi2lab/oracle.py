"""Query-counted divergence oracles.

An oracle abstracts access to divergence values of a hidden operator:
exact by default, optionally corrupted by seeded additive Gaussian
noise.  Each oracle owns a mutable query counter, so a reconstruction
run should treat its oracle as exclusively owned.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .divergence import chi2, chi2_shifted
from .operators import PdOperator, PsdOperator

__all__ = ["DivergenceOracle", "chi2_oracle", "rank_one_query_oracle"]


class DivergenceOracle:
    """Wraps a query function with counting and an optional noise model."""

    def __init__(self, query_fn: Callable, noise_sigma: float = 0.0,
                 seed: int | None = None):
        if not 0.0 <= noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and nonnegative")
        self._fn = query_fn
        self.noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)
        self.count = 0

    def query(self, probe) -> float:
        self.count += 1
        value = float(self._fn(probe))
        if self.noise_sigma > 0.0:
            value += self.noise_sigma * float(self._rng.standard_normal())
        return value


def chi2_oracle(hidden: PsdOperator, alpha: float, *, noise_sigma: float = 0.0,
                seed: int | None = None) -> DivergenceOracle:
    """Oracle answering C -> chi2(hidden, C, alpha) for positive definite C."""
    return DivergenceOracle(
        lambda probe: chi2(hidden, probe, alpha), noise_sigma, seed
    )


def rank_one_query_oracle(hidden: PdOperator, alpha: float, *,
                          noise_sigma: float = 0.0,
                          seed: int | None = None) -> DivergenceOracle:
    """Oracle answering R -> shifted rank-one query against the hidden operator."""
    return DivergenceOracle(
        lambda probe: chi2_shifted(probe, hidden, alpha), noise_sigma, seed
    )
