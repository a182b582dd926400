"""Numerical tolerances shared across the package: the thresholds that
decide membership of the PSD and PD cones and of the density operators.

Each is a finite float >= 0, overridable per call site by passing a
modified ``Tolerances``, e.g. ``dataclasses.replace(DEFAULT_TOL,
psd=1e-5)``; the defaults below are the shipped contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    #: relative floor for PSD membership (eigenvalues >= -psd * max(1, lmax)),
    #: certified by a Cholesky factorization of M + psd * max(1, max |M_ii|) * I,
    #: a shift at most the floor's; when that fails, of M + psd * max(1,
    #: ||M||_op) * I (an SVD sizes the shift) if that shift differs,
    #: and when that fails too, by the eigenvalues; the spectrum clamps
    #: eigenvalues inside the floor to 0, the matrix keeps them
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

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"tolerance {f.name} must be finite and >= 0, got {value!r}")


DEFAULT_TOL = Tolerances()
