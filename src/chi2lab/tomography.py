"""Recovery of a hidden positive operator from divergence queries.

The hidden operator A is only accessible through values of the
divergence against probe states C = t P + s (I - P), s = (1 - t)/(d - 1),
t in (0, 1), for rank-one projections P = v v*.  Since
C^-a = t^-a P + s^-a (I - P), each response is

    r_P(t) = (1 - 2 tr A) + x_P / t + (tr A^2 - 2 y_P + x_P) / s
             + (y_P - x_P) f(t),      f(t) = t^-a s^(a-1) + s^-a t^(a-1),

with x_P = <v, A v>^2 and y_P = <v, A^2 v>: the constant and tr A^2 are
shared by every probe.  Over the complete family of d^2 projections the
overlaps sqrt(x_P) = tr(A P) pin A down.  At the endpoint orders a = 0, 1
the x_P column vanishes, and recovery goes through the overlaps y_P of
A^2 and a positive square root.

Probe p of ``projection_family`` order is queried at the schedule weights
whose index has p's parity, so both halves span the whole interval
(contiguous halves came out up to several times less accurate).
One least-squares fit of all 2 d^2 + 2 coefficients eliminates each
probe's own by projecting its equations onto their orthogonal complement,
solves the shared pair from the stacked projected rows and
back-substitutes (variable projection: Golub and Pereyra, SIAM J. Numer.
Anal. 10, 1973).  With three weights in a half, each probe's redundant
query carries its residual check.  The identity tr A^2 = sum_i y_(e_i)
over the d basis projections joins the fit as one more row of the shared
pair, which keeps its condition number below about 400 up to d = 16 (the
halves alone reach 5e3 at d = 8, a = 1/2).  At t = 1/d the probe state is
I/d whatever P is, so that weight tells nothing of its probe.

The probe states depend only on ``(d, t_values, tol)``, so the states of
the latest design, one per query, are built once and reused (about
0.26 MB at d = 6 and 7.0 MB at d = 16 under tracemalloc); the fit's
columns, complements and pseudo-inverses depend only on
``(d, alpha, t_values)`` and are kept for the latest 16 of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .divergence import Alpha
from .errors import (
    DimensionMismatch,
    IllConditionedProbe,
    InconsistentOracle,
    NotPositiveSemidefinite,
)
from .linalg import cluster_eigenpairs, complete_to_unitary
from .operators import (
    HermitianMatrix,
    NonsingularDensity,
    PsdOperator,
    RankOneProjection,
    _clamped,
    _unchecked,
    frac_power,
    hermitian_from_overlaps,
    projection_family,
)
from .oracle import DivergenceOracle

__all__ = ["ProbeSchedule", "probe_state", "quadratic_form_tomography"]

@dataclass(frozen=True)
class ProbeSchedule:
    """Interior probe weights t; all distinct, strictly inside (0, 1).

    Probe p of ``projection_family`` order is queried at the weights
    ``t_values[p % 2::2]``, its half.  With T weights a tomography in
    dimension d makes ceil(d^2/2) * ceil(T/2) + floor(d^2/2) * floor(T/2)
    queries: 3 d^2 for the default six.  Each half needs 3 weights other
    than 1/d, which ``quadratic_form_tomography`` checks for its d.
    """

    t_values: tuple[float, ...] = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        if not ts:
            raise ValueError("schedule must be non-empty")
        if any(not 0.0 < t < 1.0 for t in ts):
            raise ValueError("probe weights must lie strictly inside (0, 1)")
        if len(set(ts)) != len(ts):
            raise ValueError("probe weights must be pairwise distinct")
        object.__setattr__(self, "t_values", ts)


def probe_state(p: RankOneProjection, t: float, d: int,
                tol: Tolerances = DEFAULT_TOL) -> NonsingularDensity:
    """The nonsingular density t P + (1-t)/(d-1) (I - P).

    Its spectrum is known analytically, so the state is assembled with a
    primed decomposition and each divergence query against it costs no
    eigensolve.  Raises ``ValueError`` for a weight outside (0, 1) or
    d < 2, and ``DimensionMismatch`` unless P acts on dimension d.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("probe weight must lie in (0, 1)")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if p.dim != d:
        raise DimensionMismatch(f"projection of dim {p.dim} vs {d}")
    w = np.full(d, (1.0 - t) / (d - 1))
    w[0] = t
    spec = cluster_eigenpairs(w, complete_to_unitary(p.vector), tol)
    return _unchecked(NonsingularDensity, spec.reassemble(), tol=tol, spectrum=spec)


@lru_cache(maxsize=1)
def _probe_states(d: int, t_values: tuple[float, ...],
                  tol: Tolerances) -> tuple[tuple[NonsingularDensity, ...], ...]:
    """``probe_state(p, t, d, tol)`` per projection ``p`` of
    ``projection_family(d)`` (rows) and weight ``t`` of p's half of
    ``t_values`` (columns)."""
    return tuple(
        tuple(probe_state(p, t, d, tol) for t in t_values[i % 2::2])
        for i, p in enumerate(projection_family(d))
    )


def _columns(d: int, alpha: Alpha, ts: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The response's columns at weights ``ts``: shared ``[1, tr A^2]``
    and local ``[x_P, y_P]``, or ``[y_P]`` at the endpoints."""
    t = np.asarray(ts)
    inv_s = (d - 1) / (1.0 - t)
    f = t ** -alpha * inv_s ** (1.0 - alpha) + inv_s ** alpha * t ** (alpha - 1.0)
    shared = np.column_stack([np.ones_like(t), inv_s])
    local = [f - 2.0 * inv_s]
    if not alpha.is_endpoint:
        local.insert(0, 1.0 / t + inv_s - f)
    return shared, np.column_stack(local)


def _complement(local: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the complement of ``local``'s columns, from
    ``[-L1^-T L2^T; I]`` with L1 the rows ``pivot[:k]`` and L2 the rest: a
    solve leaves it several times nearer orthogonal to them than an SVD's
    complement, and the fit of the shared pair amplifies what is left."""
    k = local.shape[1]
    top, rest = pivot[:k], pivot[k:]
    null = np.zeros((len(local), len(rest)))
    null[rest] = np.eye(len(rest))
    null[top] = -np.linalg.solve(local[top].T, local[rest].T)
    return np.linalg.qr(null)[0]


@lru_cache(maxsize=16)
def _design(d: int, alpha: Alpha,
            t_values: tuple[float, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Per half of ``t_values``: the shared and local columns, an
    orthonormal basis of the local columns' complement and their
    pseudo-inverse.  Like the probe states they depend only on the
    design, so they are built once and kept read-only."""
    halves = []
    for ts in (np.array(t_values[0::2]), np.array(t_values[1::2])):
        shared, local = _columns(d, alpha, ts)
        # pivot the complement on the weights furthest from 1/d, where the
        # local columns vanish
        pivot = np.argsort(-np.abs(ts * d - 1.0), kind="stable")
        half = (shared, local, _complement(local, pivot), np.linalg.pinv(local))
        for m in half:
            m.flags.writeable = False
        halves.append(half)
    return tuple(halves)


def _shared_pair(parts: list, d: int, robust: bool) -> np.ndarray:
    """Least-squares constant and tr A^2 from each probe's equations
    projected off its own columns.  Probes of a half share one projected
    block, so their stacked rows reduce to the half's mean (or, when
    ``robust``, its median, which a minority of faulty probes leaves
    alone).  The mean fit adds the row tr A^2 = sum of y_P over the basis
    projections, the first d probes; without it the two halves' rows are
    nearly parallel (condition up to 5e3 at d = 8)."""
    lhs, rhs = [], []
    trace_row, trace_val, trace_norm = np.array([0.0, 1.0]), 0.0, 0.0
    for h, (shared, _, perp, pinv, responses) in enumerate(parts):
        projected = responses @ perp
        weight = np.sqrt(len(responses))
        lhs.append(weight * perp.T @ shared)
        centre = np.median(projected, axis=0) if robust else projected.mean(axis=0)
        rhs.append(weight * centre)
        # y_P = g (r_P - shared c), g the last row of the pseudo-inverse
        n, g = (d + 1 - h) // 2, pinv[-1]
        trace_row = trace_row + n * g @ shared
        trace_val += g @ responses[:n].sum(axis=0)
        trace_norm += n * g @ g
    if not robust:
        lhs.append(trace_row[None] / np.sqrt(trace_norm))
        rhs.append([trace_val / np.sqrt(trace_norm)])
    return np.linalg.lstsq(np.vstack(lhs), np.concatenate(rhs), rcond=None)[0]


def _back_substitute(parts: list, common: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Per probe in family order: the fitted x_P (y_P at the endpoints)
    and the largest misfit of its responses."""
    quad, residual = np.empty(d * d), np.empty(d * d)
    for h, (shared, local, _, pinv, responses) in enumerate(parts):
        rest = responses - shared @ common
        coeffs = rest @ pinv.T
        quad[h::2] = coeffs[:, 0]
        residual[h::2] = np.max(np.abs(rest - coeffs @ local.T), axis=1)
    return quad, residual


def _nearest_psd(estimate: HermitianMatrix) -> PsdOperator:
    """``estimate`` itself when it passes the PSD floor, else the nearest
    positive operator in Hilbert-Schmidt norm, its negative eigenvalues
    set to 0 (projected least squares), which is never further from any
    positive operator than the estimate."""
    try:
        return PsdOperator(estimate.mat, estimate.tol)
    except NotPositiveSemidefinite:
        return PsdOperator(_clamped(estimate.spectrum()).reassemble(), estimate.tol)


def quadratic_form_tomography(
    oracle: DivergenceOracle,
    d: int,
    alpha: float,
    schedule: ProbeSchedule | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> PsdOperator:
    """Reconstruct the hidden positive operator behind a divergence oracle.

    The oracle must answer query(C) with the divergence of the hidden
    operator against the probe state C.  Each probe is queried at its half
    of the schedule, so a schedule of T weights takes exactly
    ceil(d^2/2) * ceil(T/2) + floor(d^2/2) * floor(T/2) queries (3 d^2 by
    default), all made before any check.  Then the first probe in
    ``projection_family`` order that answers a negative divergence, whose
    responses misfit the model or whose fitted x_P is negative (read once
    every probe fits) raises.  A faulty probe drags the fitted constant
    and tr A^2 and so misfits every probe of its half; on any misfit the
    pair is refitted from the halves' medians, so that the checks name the
    faulty probes themselves while they are a minority of their half.  At
    d = 2 a half holds two probes, too few to tell which one is faulty, and
    the probe named may be an innocent one.

    A noisy oracle may leave the estimate (of A^2 at the endpoints)
    outside the positive cone, as it does about half the time for a
    singular A; its nearest positive operator is then taken instead.
    Raises ``ValueError`` before any query when either half of the
    schedule holds fewer than 3 weights other than 1/d: at t = 1/d every
    probe state is I/d.
    """
    alpha = Alpha(alpha)
    schedule = schedule or ProbeSchedule()
    halves = [np.array(schedule.t_values[h::2]) for h in (0, 1)]
    informative = [int(np.sum(np.abs(ts * d - 1.0) > 1e-6)) for ts in halves]
    if min(informative) < 3:
        raise ValueError(f"each half of the schedule needs 3 weights other than 1/d, "
                         f"got {informative[0]} and {informative[1]}")
    rows = [
        np.array([oracle.query(c) for c in row])
        for row in _probe_states(d, schedule.t_values, tol)
    ]
    # variable projection: project each probe's equations off its own
    # columns, fit the shared pair, then back-substitute
    parts = []
    scale, lowest = np.empty(d * d), np.empty(d * d)
    for h, half in enumerate(_design(d, alpha, schedule.t_values)):
        responses = np.array(rows[h::2])
        parts.append(half + (responses,))
        scale[h::2] = np.maximum(1.0, np.max(np.abs(responses), axis=1))
        lowest[h::2] = np.min(responses, axis=1)
    quad, residual = _back_substitute(parts, _shared_pair(parts, d, robust=False), d)
    if np.any(residual > 1e-6 * scale):
        quad, residual = _back_substitute(parts, _shared_pair(parts, d, robust=True), d)
    misfit = residual > 1e-6 * scale
    negative = lowest < -1e-6 * scale
    # a misfit leaves every fitted overlap in doubt, so their signs are
    # checked once every probe fits
    sign = (quad < -1e-8 * scale) & ~misfit.any()
    failed = np.flatnonzero(negative | misfit | sign)
    if failed.size:
        idx = failed[0]
        if negative[idx]:
            raise InconsistentOracle(f"probe {idx}: negative divergence {lowest[idx]:.3e}")
        if misfit[idx]:
            raise IllConditionedProbe(
                f"probe {idx}: fit residual {residual[idx]:.3e} exceeds "
                f"1e-6 * {scale[idx]:.3e}"
            )
        raise InconsistentOracle(f"probe {idx}: negative overlap coefficient {quad[idx]:.3e}")
    quad = np.maximum(quad, 0.0)
    endpoint = alpha.is_endpoint
    recovered = _nearest_psd(hermitian_from_overlaps(quad if endpoint else np.sqrt(quad), d, tol))
    if endpoint:
        # overlaps gave tr(A^2 P): take the positive square root of A^2
        return PsdOperator(frac_power(recovered, 0.5).mat, tol)
    return recovered
