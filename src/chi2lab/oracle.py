"""Query-counted divergence oracles.

An oracle answers divergence queries about one hidden operator: exact by
default, optionally corrupted by seeded additive Gaussian noise.  The
hidden operator is immutable, so whatever a query does not need to
re-check is checked, or built, once when the oracle is constructed: the
order, and for the rank-one oracle the hidden operator's positive
definiteness and its query stack.  A query then checks only its probe and
runs the code the public divergence functions run after their own checks.

Raised at construction: ``ValueError`` for an order outside [0, 1] or a
bad ``noise_sigma``, and from ``rank_one_query_oracle``
``NotPositiveDefinite`` for a hidden operator that is not positive
definite.  Raised by the query, on every query: ``DimensionMismatch`` for
a probe of the wrong dimension, and from ``chi2_oracle``
``NotPositiveDefinite`` for a probe state that is not positive definite.

Each oracle owns a mutable query counter, so a reconstruction run should
treat its oracle as exclusively owned.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .divergence import Alpha, _chi2, _query_stack, _require_pd, _shifted_values
from .operators import PdOperator, PsdOperator, RankOneProjection, _require_same_dim

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
    """Oracle answering C -> chi2(hidden, C, alpha) for positive definite C.

    The order is checked here.  Each query checks the probe state's
    dimension and positive definiteness, as ``chi2`` does, through the
    same code, and returns ``chi2``'s value bit for bit.
    """
    alpha = float(Alpha(alpha))
    return DivergenceOracle(lambda probe: _chi2(hidden, probe, alpha), noise_sigma, seed)


def rank_one_query_oracle(hidden: PdOperator, alpha: float, *,
                          noise_sigma: float = 0.0,
                          seed: int | None = None) -> DivergenceOracle:
    """Oracle answering R -> chi2_shifted(R, hidden, alpha).

    The order and the hidden operator's positive definiteness are checked
    here, and its query stack is built here.  Each query checks only the
    probe's dimension, and returns ``chi2_shifted``'s value bit for bit.
    """
    alpha = float(Alpha(alpha))
    spec = hidden.spectrum()
    _require_pd(spec, hidden.tol)
    stack = _query_stack(hidden, spec, alpha)

    def query(probe: RankOneProjection) -> float:
        _require_same_dim(probe, hidden)
        return _shifted_values(stack, probe.vector)

    return DivergenceOracle(query, noise_sigma, seed)
