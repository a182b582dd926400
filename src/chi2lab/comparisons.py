"""Comparison divergences: f-, Bregman and Jensen functionals.

These are the families the chi-squared divergence is measured against:
it matches the f-divergence of f(t) = (t-1)^2 exactly at the endpoint
orders and differs from every Bregman and Jensen divergence otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .divergence import _require_pd
from .operators import HermitianMatrix, PdOperator, PsdOperator, _require_same_dim

__all__ = [
    "ScalarFunction",
    "SQUARED_RATIO_LOSS",
    "SQUARE",
    "XLOGX",
    "f_divergence",
    "bregman_divergence",
    "jensen_divergence",
]


@dataclass(frozen=True)
class ScalarFunction:
    """Real function on (0, inf) (and at 0 where needed), with optional derivative."""

    fn: Callable[[float], float]
    derivative: Callable[[float], float] | None = None
    name: str = ""

    def __call__(self, t: float) -> float:
        v = float(self.fn(t))
        if not math.isfinite(v):
            raise ValueError(f"scalar function {self.name or 'f'} not finite at {t}")
        return v


SQUARED_RATIO_LOSS = ScalarFunction(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), "(t-1)^2")
SQUARE = ScalarFunction(lambda t: t * t, lambda t: 2.0 * t, "t^2")
XLOGX = ScalarFunction(
    lambda t: t * math.log(t) if t > 0.0 else 0.0,
    lambda t: math.log(t) + 1.0,
    "t log t",
)


def f_divergence(a: PsdOperator, b: PsdOperator, f: ScalarFunction) -> float:
    """Double spectral sum  sum_{x,y} y f(x/y) tr(P_x Q_y)  over sigma(A), sigma(B).

    Summed over eigenvector pairs, which weigh ``|<a_i, b_j>|^2``.
    Defined here for positive definite B only.
    """
    _require_same_dim(a, b)
    spec_b = b.spectrum()
    _require_pd(spec_b, b.tol)
    spec_a = a.spectrum()
    weights = (np.abs(spec_a.v.conj().T @ spec_b.v) ** 2).tolist()
    total = 0.0
    for x, row in zip(spec_a.w.tolist(), weights):
        for y, weight in zip(spec_b.w.tolist(), row):
            total += y * f(x / y) * weight
    return total


def bregman_divergence(a: PdOperator, b: PdOperator, f: ScalarFunction) -> float:
    """tr f(A) - tr f(B) - tr f'(B)(A - B) for differentiable f."""
    _require_same_dim(a, b)
    if f.derivative is None:
        raise ValueError(f"Bregman divergence needs the derivative of {f.name or 'f'}")
    spec_b = b.spectrum()
    tr_fa = sum(map(f, a.spectrum().w.tolist()))
    tr_fb = sum(map(f, spec_b.w.tolist()))
    grad_b = spec_b.apply(lambda y: float(f.derivative(y)))
    correction = float(np.trace(grad_b @ (a.mat - b.mat)).real)
    return tr_fa - tr_fb - correction


def jensen_divergence(a: PsdOperator, b: PsdOperator, f: ScalarFunction) -> float:
    """tr[(f(A) + f(B))/2 - f((A+B)/2)]; symmetric in (A, B) by construction."""
    _require_same_dim(a, b)
    mid = HermitianMatrix((a.mat + b.mat) / 2.0, a.tol)
    tr_fa = sum(map(f, a.spectrum().w.tolist()))
    tr_fb = sum(map(f, b.spectrum().w.tolist()))
    tr_fm = sum(map(f, mid.spectrum().w.tolist()))
    return (tr_fa + tr_fb) / 2.0 - tr_fm
