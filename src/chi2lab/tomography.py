"""Recovery of a hidden positive operator from divergence queries.

The hidden operator A is only accessible through values of the
divergence against probe states

    C = t P + (1 - t)/(d - 1) (I - P),      t in (0, 1),

for rank-one projections P.  As a function of t each response is a
linear combination of the basis {1, 1/t, 1/(1-t),
t^-a (1-t)^(a-1), (1-t)^-a t^(a-1)}; the coefficient of 1/t isolates
the quadratic overlap tr(P A P A), and running P over a complete family
of d^2 projections pins A down.

At the endpoint orders a = 0, 1 the two power functions collapse onto
1/t and 1/(1-t), and the 1/t coefficient becomes tr(A^2 P) instead of
(tr A P)^2; recovery then goes through A^2 and a positive square root.
At a = 1/2 the two power functions coincide and the duplicate column is
dropped.

The probe states depend only on ``(d, t_values, tol)``, never on the
hidden operator, so the d^2 * T states of the latest design are built
once and reused; only that one design is kept (about 0.5 MB at d = 6 and
14 MB at d = 16 under tracemalloc).  Each query is still one
``oracle.query`` call on one of those states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .divergence import Alpha
from .errors import IllConditionedProbe, InconsistentOracle
from .linalg import cluster_eigenpairs, complete_to_unitary
from .operators import (
    NonsingularDensity,
    PsdOperator,
    RankOneProjection,
    _unchecked,
    frac_power,
    hermitian_from_overlaps,
    projection_family,
)
from .oracle import DivergenceOracle

__all__ = ["ProbeSchedule", "probe_state", "quadratic_form_tomography"]

@dataclass(frozen=True)
class ProbeSchedule:
    """Interior probe weights t; all distinct, strictly inside (0, 1)."""

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

    def __len__(self) -> int:
        return len(self.t_values)


def probe_state(p: RankOneProjection, t: float, d: int,
                tol: Tolerances = DEFAULT_TOL) -> NonsingularDensity:
    """The nonsingular density t P + (1-t)/(d-1) (I - P).

    Its spectrum is known analytically, so the state is assembled with a
    primed decomposition and each divergence query against it costs no
    eigensolve.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("probe weight must lie in (0, 1)")
    w = np.full(d, (1.0 - t) / (d - 1))
    w[0] = t
    spec = cluster_eigenpairs(w, complete_to_unitary(p.vector), tol)
    return _unchecked(NonsingularDensity, spec.reassemble(), tol=tol, spectrum=spec)


@lru_cache(maxsize=1)
def _probe_states(d: int, t_values: tuple[float, ...],
                  tol: Tolerances) -> tuple[tuple[NonsingularDensity, ...], ...]:
    """``probe_state(p, t, d, tol)`` per projection ``p`` of
    ``projection_family(d)`` (rows) and weight ``t`` (columns)."""
    return tuple(
        tuple(probe_state(p, t, d, tol) for t in t_values)
        for p in projection_family(d)
    )


def _basis_matrix(alpha: Alpha, ts: np.ndarray) -> np.ndarray:
    """Columns: [1, 1/t, 1/(1-t), (power functions)] with degenerates dropped."""
    cols = [np.ones_like(ts), 1.0 / ts, 1.0 / (1.0 - ts)]
    # at the endpoints both power functions collapse onto 1/t and
    # 1/(1-t); at alpha = 1/2 they coincide
    if not alpha.is_endpoint:
        cols.append(ts ** (-alpha) * (1.0 - ts) ** (alpha - 1.0))
        if abs(alpha - 0.5) >= 1e-9:
            cols.append((1.0 - ts) ** (-alpha) * ts ** (alpha - 1.0))
    return np.vstack(cols).T


def quadratic_form_tomography(
    oracle: DivergenceOracle,
    d: int,
    alpha: float,
    schedule: ProbeSchedule | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> PsdOperator:
    """Reconstruct the hidden positive operator behind a divergence oracle.

    The oracle must answer query(C) with the divergence of the hidden
    operator against the probe state C.  Uses exactly
    ``d^2 * len(schedule)`` queries, all made before any fit is checked;
    then the first probe in ``projection_family`` order whose fit fails
    raises.
    """
    alpha = Alpha(alpha)
    schedule = schedule or ProbeSchedule()
    ts = np.asarray(schedule.t_values)
    basis = _basis_matrix(alpha, ts)
    if len(schedule) < basis.shape[1]:
        raise ValueError(
            f"schedule has {len(schedule)} probes but the fit needs "
            f"{basis.shape[1]} basis functions"
        )
    endpoint = alpha.is_endpoint
    responses = np.array([
        [oracle.query(c) for c in row]
        for row in _probe_states(d, schedule.t_values, tol)
    ])
    coeffs = responses @ np.linalg.pinv(basis).T
    residual = np.max(np.abs(coeffs @ basis.T - responses), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(responses), axis=1))
    c1 = coeffs[:, 1]
    misfit = residual > 1e-6 * scale
    failed = np.flatnonzero(misfit | (c1 < -1e-8 * scale))
    if failed.size:
        idx = failed[0]
        if misfit[idx]:
            raise IllConditionedProbe(
                f"probe {idx}: fit residual {residual[idx]:.3e} exceeds "
                f"1e-6 * {scale[idx]:.3e}"
            )
        raise InconsistentOracle(f"probe {idx}: negative 1/t coefficient {c1[idx]:.3e}")
    c1 = np.maximum(c1, 0.0)
    overlaps = c1 if endpoint else np.sqrt(c1)
    recovered = hermitian_from_overlaps(overlaps, d, tol)
    if endpoint:
        # overlaps gave tr(A^2 P): take the positive square root of A^2
        square = PsdOperator(recovered.mat, tol)
        return PsdOperator(frac_power(square, 0.5).mat, tol)
    return PsdOperator(recovered.mat, tol)
