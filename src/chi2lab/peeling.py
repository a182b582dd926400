"""Spectral peeling: eigendecomposition from extremal rank-one queries.

The shifted rank-one query against a hidden positive definite operator
attains its minimum over rank-one projections exactly on the top
eigenspace, with value one over the top eigenvalue.  Minimizing,
recording the optimizer, deflating to the orthogonal complement and
repeating therefore recovers the full spectral decomposition, largest
eigenvalue first.  Directions whose query values agree within a
relative window are collected into one eigenprojection (multiplicity
handling for degenerate spectra).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .divergence import Alpha
from .errors import ReconstructionError
from .linalg import SpectralDecomposition, hermitian_part
from .optimize import SphereOptConfig, minimize_over_rank_one
from .oracle import DivergenceOracle

__all__ = ["spectral_peel"]

#: directions whose minimum values agree within this relative window
#: join the current eigenvalue cluster
PEEL_WINDOW = 1e-6


def _orthonormalize(vec: np.ndarray, found: list[np.ndarray]) -> np.ndarray:
    v = vec.copy()
    for u in found:
        v -= np.vdot(u, v) * u
    n = np.linalg.norm(v)
    if n < 1e-8:
        raise ReconstructionError("peeled direction collapsed under deflation")
    return v / n


def spectral_peel(
    oracle: DivergenceOracle,
    d: int,
    alpha: float,
    cfg: SphereOptConfig | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralDecomposition:
    """Recover the spectral decomposition of the operator behind the oracle.

    The oracle must answer query(R) with the shifted rank-one query
    against a hidden positive definite operator.  Returns the peeled
    directions as eigenvectors, each cluster's eigenvalue repeated over
    its directions; the distinct eigenvalues are strictly decreasing.
    """
    alpha = Alpha(alpha)
    cfg = cfg or SphereOptConfig(restarts=d + 3, max_iters=300)
    found: list[np.ndarray] = []
    clusters: list[dict] = []
    eye = np.eye(d, dtype=np.complex128)
    while len(found) < d:
        if found:
            stack = np.column_stack(found)
            subspace = hermitian_part(eye - stack @ stack.conj().T)
        else:
            subspace = None
        run_cfg = replace(cfg, subspace=subspace, seed=cfg.seed + len(found))
        result = minimize_over_rank_one(oracle.query, d, run_cfg)
        if not result.converged:
            raise ReconstructionError(
                f"optimizer failed to converge while peeling direction {len(found)}"
            )
        value = result.value
        if not value > 0.0 or not np.isfinite(value):
            raise ReconstructionError(
                f"query minimum {value!r} does not yield an eigenvalue in (0, inf)"
            )
        lam = 1.0 / value
        found.append(_orthonormalize(result.argopt.vector, found))
        if clusters and abs(value - clusters[-1]["value"]) <= PEEL_WINDOW * clusters[-1]["value"]:
            clusters[-1]["lams"].append(lam)
        else:
            clusters.append({"value": value, "lams": [lam]})
    means = [float(np.mean(cluster["lams"])) for cluster in clusters]
    for a, b in zip(means, means[1:]):
        if not a > b:
            raise ReconstructionError("peeled eigenvalues are not strictly decreasing")
    sizes = [len(cluster["lams"]) for cluster in clusters]
    return SpectralDecomposition(np.repeat(means, sizes), np.column_stack(found))
