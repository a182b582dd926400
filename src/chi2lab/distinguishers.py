"""Separating the chi-squared family from f-, Bregman and Jensen divergences.

The diagonal probe A = tI, B = I forces any matching f-divergence onto
f(t) = (t-1)^2, which reproduces the family only at the endpoint
orders; interior orders admit explicit noncommuting witnesses.  Against
Bregman divergences the scalar restriction K(tI||sI) = d (t-s)^2 / s is
visibly non-quadratic in s, and Jensen divergences are symmetric while
the family is not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .comparisons import SQUARE, SQUARED_RATIO_LOSS, f_divergence, jensen_divergence
from .divergence import Alpha, chi2
from .ensembles import random_pd, random_psd
from .matio import matrix_to_obj
from .operators import PdOperator

__all__ = [
    "FDistinguisherReport",
    "BregmanDistinguisherReport",
    "JensenDistinguisherReport",
    "distinguish_from_f_divergence",
    "distinguish_from_bregman",
    "distinguish_from_jensen",
]


@dataclass(frozen=True)
class FDistinguisherReport:
    alpha: float
    dim: int
    equality: bool
    max_residual: float
    witness: dict | None
    samples_used: int

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BregmanDistinguisherReport:
    probe_t: float
    dim: int
    s_grid: tuple[float, ...]
    values: tuple[float, ...]
    fit_residual: float
    control_residual: float

    @property
    def non_quadratic(self) -> bool:
        return self.fit_residual >= 0.1

    def to_obj(self) -> dict:
        return {**asdict(self), "non_quadratic": self.non_quadratic}


@dataclass(frozen=True)
class JensenDistinguisherReport:
    alpha: float
    dim: int
    a: dict
    b: dict
    forward: float
    backward: float
    gap: float
    jensen_gap: float

    def to_obj(self) -> dict:
        return asdict(self)


def distinguish_from_f_divergence(
    alpha: float, d: int, budget: int = 1000, seed: int = 0
) -> FDistinguisherReport:
    """Equality report at the endpoint orders, witness search otherwise.

    With f(t) = (t-1)^2 (the only candidate the diagonal probe allows):
    at alpha in {0, 1} the f-divergence and the family agree, which is
    verified on random pairs; for interior alpha random noncommuting
    pairs are searched for a gap of at least 0.01.
    """
    alpha = Alpha(alpha)
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rng = np.random.default_rng(seed)
    if alpha.is_endpoint:
        checks = min(budget, 50)
        worst = 0.0
        for _ in range(checks):
            a = random_psd(d, rng)
            b = random_pd(d, rng)
            gap = abs(f_divergence(a, b, SQUARED_RATIO_LOSS) - chi2(a, b, alpha))
            worst = max(worst, gap)
        return FDistinguisherReport(float(alpha), d, worst <= 1e-9, worst, None, checks)
    worst = 0.0
    for used in range(1, budget + 1):
        a = random_psd(d, rng, rank=d)
        b = random_pd(d, rng)
        gap = abs(f_divergence(a, b, SQUARED_RATIO_LOSS) - chi2(a, b, alpha))
        worst = max(worst, gap)
        if gap >= 0.01:
            witness = {
                "a": matrix_to_obj(a.mat),
                "b": matrix_to_obj(b.mat),
                "gap": gap,
            }
            return FDistinguisherReport(float(alpha), d, False, worst, witness, used)
    return FDistinguisherReport(float(alpha), d, False, worst, None, budget)


def distinguish_from_bregman(
    alpha: float, probe_t: float = 2.0, s_grid=(0.5, 1.0, 1.5, 2.5), d: int = 2
) -> BregmanDistinguisherReport:
    """Quadratic-fit residual of s -> divergence(tI || sI) on a grid.

    A Bregman divergence restricted to scalar pairs is quadratic in s;
    the family's restriction d (t-s)^2 / s is not, so the least-squares
    quadratic fit leaves a macroscopic residual.  The control column
    fits the genuinely quadratic d (t-s)^2 and must vanish.
    """
    alpha = Alpha(alpha)
    if probe_t <= 0.0:
        raise ValueError("probe_t must be positive")
    grid = tuple(float(s) for s in s_grid)
    if len(grid) < 4 or len(set(grid)) != len(grid) or any(s <= 0 for s in grid):
        raise ValueError("s grid needs at least 4 distinct positive points")
    eye = np.eye(d)
    a = PdOperator(probe_t * eye)
    values = tuple(chi2(a, PdOperator(s * eye), alpha) for s in grid)
    sg = np.asarray(grid)
    design = np.vstack([np.ones_like(sg), sg, sg**2]).T
    rhs = np.column_stack([values, d * (probe_t - sg) ** 2])
    coeffs, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    fit_residual, control_residual = np.max(np.abs(design @ coeffs - rhs), axis=0)
    return BregmanDistinguisherReport(
        float(probe_t), d, grid, values, float(fit_residual), float(control_residual)
    )


def distinguish_from_jensen(alpha: float, d: int = 2) -> JensenDistinguisherReport:
    """A built-in asymmetry witness: A = I + 2 e1 e1*, B = I.

    The divergence of A against B is 4 while the reverse direction is
    4/3, a gap of 8/3; any Jensen divergence has gap exactly zero.
    """
    alpha = Alpha(alpha)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(d)
    amat = eye.copy()
    amat[0, 0] = 3.0
    a = PdOperator(amat)
    b = PdOperator(eye)
    forward = chi2(a, b, alpha)
    backward = chi2(b, a, alpha)
    jensen_gap = abs(
        jensen_divergence(a, b, SQUARE) - jensen_divergence(b, a, SQUARE)
    )
    return JensenDistinguisherReport(
        float(alpha),
        d,
        matrix_to_obj(a.mat),
        matrix_to_obj(b.mat),
        forward,
        backward,
        abs(forward - backward),
        jensen_gap,
    )
