"""Numerical tolerances shared across the package.

All thresholds are overridable per call site by passing a modified
``Tolerances``, e.g. ``dataclasses.replace(DEFAULT_TOL, psd=1e-5)``; the
defaults below are the shipped contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    #: relative floor for PSD membership (eigenvalues >= -psd * max(1, lmax)),
    #: certified by a Cholesky factorization of M + psd * max(1, max |M_ii|) * I,
    #: a shift at most the floor's; when that fails, of M + psd * max(1,
    #: ||M||_op) * I (an SVD sizes the shift), and when that fails too, by the
    #: eigenvalues; the spectrum clamps eigenvalues inside the floor to 0, the
    #: matrix keeps them
    psd: float = 1e-10
    #: relative gap lmin > pd * lmax required for PD membership
    pd: float = 1e-10
    #: relative cutoff separating support from kernel
    support: float = 1e-10
    #: eigenvalues closer than cluster * max(1, lmax) merge into one projection
    cluster: float = 1e-8
    #: allowed entrywise asymmetry relative to the matrix scale
    hermitian: float = 1e-12
    #: |tr - 1| bound for density operators
    trace_one: float = 1e-10
    #: Jacobi stopping rule, on each route of ``linalg.jacobi_eigh``: a
    #: positive definite matrix (one-sided route, on Y with Y Y* = M) stops
    #: once max |G_pq| / sqrt(G_pp G_qq) of G = Y* Y falls to this; any other
    #: (two-sided route) once its off-diagonal norm falls below this times
    #: ||M||_HS.  Exactly diagonal matrices take the two-sided route and
    #: run no sweep.
    jacobi_off: float = 1e-14
    #: Jacobi sweep cap on both routes; exceeding it raises SolverFailure
    jacobi_sweeps: int = 100

    def __post_init__(self):
        for f in fields(self):
            value, sweeps = getattr(self, f.name), f.name == "jacobi_sweeps"
            if not (isinstance(value, int) if sweeps else math.isfinite(value)) or value < 0:
                want = "an integer" if sweeps else "finite and"
                raise ValueError(f"tolerance {f.name} must be {want} >= 0, got {value!r}")


DEFAULT_TOL = Tolerances()
