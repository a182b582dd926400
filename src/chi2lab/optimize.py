"""Constrained black-box minimization, no longer called or exported by the
package: it stays only because ``chi2bench/tracer.py`` wraps its four entry
points by name, and goes together with the tracer's optimizer rows.

Every search runs one loop, ``_descend``: gradient descent with the
two-point (Barzilai-Borwein) step and a monotone backtracking safeguard,
started from several deterministically seeded points.  The loop has two
geometries.  On the unit sphere (rank-one projections, and states
parametrized as G G* / tr(G G*)) the gradient is projected onto the
tangent space and every candidate is retracted by normalization (Absil,
Mahony and Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
2008).  In free space (the positive definite cone, parametrized as
G G* + floor * I) steps are taken as they come.

Objectives arrive as black-box oracles, so gradients are central finite
differences.  Failure to converge is reported through a flag, never an
exception, and the best value found is still returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    PdOperator,
    RankOneProjection,
    _unchecked,
)
from .linalg import jacobi_eigh

__all__ = [
    "SphereOptConfig",
    "ConeOptConfig",
    "SphereOptResult",
    "ConeOptResult",
    "StateOptResult",
    "minimize_over_rank_one",
    "maximize_over_rank_one",
    "infimum_over_pd",
    "maximize_over_states",
]

#: a sphere step shorter than this ends a descent
_STEP_TOL = 1e-12
#: two consecutive gains at or below this end a descent
_VALUE_TOL = 1e-10
#: central finite-difference step
_FD_STEP = 1e-6
#: smallest eigenvalue allowed during the cone search
_BOUNDARY_FLOOR = 1e-8


@dataclass(frozen=True)
class SphereOptConfig:
    restarts: int = 32
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True)
class ConeOptConfig:
    max_iters: int = 400
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True, eq=False)
class SphereOptResult:
    argopt: RankOneProjection
    value: float
    converged: bool


@dataclass(frozen=True, eq=False)
class ConeOptResult:
    value: float
    argmin: PdOperator
    #: True when the best point hugs the eigenvalue floor, i.e. the
    #: infimum is approached at the cone boundary rather than attained
    boundary: bool
    converged: bool


@dataclass(frozen=True, eq=False)
class StateOptResult:
    state: DensityOperator
    value: float
    converged: bool


def _fd_grad(fun, x: np.ndarray) -> np.ndarray:
    h = _FD_STEP
    g = np.empty(x.size)
    for i in range(x.size):
        old = x[i]
        x[i] = old + h
        fp = fun(x)
        x[i] = old - h
        fm = fun(x)
        x[i] = old
        g[i] = (fp - fm) / (2.0 * h)
    return g


def _descend(fun, x0: np.ndarray, max_iters: int,
             on_sphere: bool) -> tuple[float, np.ndarray, bool]:
    """Two-point (Barzilai-Borwein) gradient descent, on the sphere or free.

    Steps use a monotone backtracking safeguard; without it, nearly
    degenerate spectra make plain gradient descent crawl.  On the unit
    sphere of R^n the gradient is projected onto the tangent space, a
    trial step stays under one radian, candidates are retracted by
    normalization and a step shorter than ``_STEP_TOL`` ends the run.
    """
    if on_sphere:
        x = x0 / np.linalg.norm(x0)
        step_floor, step_cap = 0.25 * _STEP_TOL, 1e6
    else:
        x = x0.copy()
        # quartic landscapes flatten toward the minimum; let the step grow
        step_floor, step_cap = 1e-14, 1e9
    f = fun(x)
    prev_x = prev_grad = None
    eta = 0.25
    converged = False
    stall = 0
    for _ in range(max_iters):
        grad = _fd_grad(fun, x)
        if on_sphere:
            grad -= np.dot(grad, x) * x
        gnorm = float(np.linalg.norm(grad))
        if gnorm == 0.0:
            converged = True
            break
        if prev_grad is not None:
            s = x - prev_x
            y = grad - prev_grad
            sy = float(np.dot(s, y))
            yy = float(np.dot(y, y))
            if sy > 0.0 and yy > 0.0:
                eta = sy / yy
        if on_sphere:
            # keep the trial displacement under one radian on the sphere
            eta = min(eta, 0.8 / gnorm)
        improved = False
        while eta * gnorm > step_floor:
            cand = x - eta * grad
            if on_sphere:
                cand /= np.linalg.norm(cand)
            fc = fun(cand)
            if fc < f:
                improved = True
                break
            eta /= 2.0
        if not improved:
            converged = True
            break
        short_step = on_sphere and float(np.linalg.norm(cand - x)) <= _STEP_TOL
        prev_x, prev_grad = x, grad
        gain = f - fc
        x, f = cand, fc
        eta = min(eta * 2.0, step_cap)
        if short_step:
            converged = True
            break
        if gain <= _VALUE_TOL:
            stall += 1
            if stall >= 2:
                converged = True
                break
        else:
            stall = 0
    return f, x, converged


def _multistart(fun, starts, max_iters: int,
                on_sphere: bool) -> tuple[float, np.ndarray, bool]:
    """Descend from every start: the first best (value, point), and
    whether any run converged."""
    runs = [_descend(fun, x0, max_iters, on_sphere) for x0 in starts]
    f, x, _ = min(runs, key=lambda run: run[0])
    return f, x, any(run[2] for run in runs)


def _complex_of(x: np.ndarray) -> np.ndarray:
    k = x.size // 2
    return x[:k] + 1j * x[k:]


def _sphere_starts(k: int, restarts: int, rng: np.random.Generator):
    starts = []
    for i in range(min(k, restarts)):
        x = np.zeros(2 * k)
        x[i] = 1.0
        starts.append(x)
    while len(starts) < restarts:
        starts.append(rng.standard_normal(2 * k))
    return starts


def _optimize_rank_one(g, d: int, cfg: SphereOptConfig, sign: float) -> SphereOptResult:
    # x = (re, im) in R^(2d) is the vector re + i im
    def fun(x: np.ndarray) -> float:
        return sign * float(g(RankOneProjection(_complex_of(x))))

    rng = np.random.default_rng(cfg.seed)
    starts = _sphere_starts(d, cfg.restarts, rng)
    f, x, any_converged = _multistart(fun, starts, cfg.max_iters, True)
    proj = RankOneProjection(_complex_of(x))
    return SphereOptResult(proj, sign * f, any_converged)


def minimize_over_rank_one(g, d: int, cfg: SphereOptConfig | None = None) -> SphereOptResult:
    """Minimize a rank-one-projection objective over the unit sphere.

    Multi-start projected gradient with stratified starts (canonical
    basis directions first, then seeded random ones).
    """
    return _optimize_rank_one(g, d, cfg or SphereOptConfig(), 1.0)


def maximize_over_rank_one(g, d: int, cfg: SphereOptConfig | None = None) -> SphereOptResult:
    """Maximize a rank-one-projection objective (minimize its negation)."""
    return _optimize_rank_one(g, d, cfg or SphereOptConfig(), -1.0)


def infimum_over_pd(g, d: int, cfg: ConeOptConfig | None = None) -> ConeOptResult:
    """Estimate the infimum of g over positive definite operators.

    The search runs over X = G G* + floor * I, so boundary infima are
    approached within the floor; the result flags when the minimizer
    hugs the floor (the infimum is then open, not attained).
    """
    cfg = cfg or ConeOptConfig()
    eye = np.eye(d)

    def assemble(x: np.ndarray) -> np.ndarray:
        gm = _complex_of(x).reshape(d, d)
        return gm @ gm.conj().T + _BOUNDARY_FLOOR * eye

    def fun(x: np.ndarray) -> float:
        return float(g(_unchecked(PdOperator, assemble(x))))

    rng = np.random.default_rng(cfg.seed)
    starts = [np.concatenate([np.eye(d).reshape(-1), np.zeros(d * d)])]
    while len(starts) < cfg.restarts:
        starts.append(0.7 * rng.standard_normal(2 * d * d))
    f, x, any_converged = _multistart(fun, starts, cfg.max_iters, False)
    xmat = assemble(x)
    w, _ = jacobi_eigh(xmat)
    # an eigenvalue within 1e-5 of zero (on the unit scale) means the
    # infimum is being approached at the cone boundary, not attained
    boundary = bool(w[-1] <= max(10.0 * _BOUNDARY_FLOOR, 1e-5 * max(1.0, w[0])))
    return ConeOptResult(f, _unchecked(PdOperator, xmat), boundary, any_converged)


def maximize_over_states(g, d: int, cfg: ConeOptConfig | None = None) -> StateOptResult:
    """Maximize a state-space objective over densities.

    States are parametrized as G G* / tr(G G*) over nonzero matrices G;
    on the unit Hilbert-Schmidt sphere of G the normalization is exact,
    so this reduces to sphere descent in R^(2 d^2).
    """
    cfg = cfg or ConeOptConfig()

    def state_of(x: np.ndarray) -> np.ndarray:
        gm = _complex_of(x).reshape(d, d)
        w = gm @ gm.conj().T
        return w / np.trace(w).real

    def fun(x: np.ndarray) -> float:
        return -float(g(_unchecked(DensityOperator, state_of(x))))

    rng = np.random.default_rng(cfg.seed)
    starts = _sphere_starts(d * d, cfg.restarts, rng)
    f, x, any_converged = _multistart(fun, starts, cfg.max_iters, True)
    state = _unchecked(DensityOperator, state_of(x))
    return StateOptResult(state, -f, any_converged)
