"""Seeded random ensembles used by tests, property suites and demos.

Sampling is deterministic given the generator state; the generator is
always passed explicitly.  Spectra that are known by construction are
primed into the operator's cache so the samplers stay cheap inside hot
verification loops.
"""

from __future__ import annotations

import numpy as np

from .linalg import cluster_eigenpairs, hermitian_part
from .operators import (
    ComplexMatrix,
    DensityOperator,
    NonsingularDensity,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    _unchecked,
)

__all__ = [
    "haar_unitary",
    "random_hermitian",
    "random_density",
    "random_pd",
    "random_psd",
    "random_projection",
    "random_nonsingular_density",
    "random_ensemble",
]

ENSEMBLE_KINDS = ("unitary", "density", "pd", "psd_rank_r", "rank_one_projection")

# spectra of pd / psd draws are uniform on this window, keeping the
# condition number moderate so divergence identities hold at 1e-9 scales
_EIG_LOW = 0.25
_EIG_HIGH = 1.25


def _ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from QR of a complex Ginibre matrix."""
    q, r = np.linalg.qr(_ginibre(d, rng))
    diag = np.diag(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian matrix (entries O(1))."""
    return hermitian_part(_ginibre(d, rng))


def _from_spectrum(cls, d, rng, eigenvalues):
    spec = cluster_eigenpairs(eigenvalues, haar_unitary(d, rng))
    return _unchecked(cls, spec.reassemble(), spectrum=spec)


def random_pd(d: int, rng: np.random.Generator, *, scale: float = 1.0) -> PdOperator:
    """Positive definite operator with eigenvalues uniform in a fixed window."""
    eigs = scale * rng.uniform(_EIG_LOW, _EIG_HIGH, size=d)
    return _from_spectrum(PdOperator, d, rng, eigs)


def random_psd(d: int, rng: np.random.Generator, *, rank: int | None = None,
               scale: float = 1.0) -> PsdOperator:
    """PSD operator of the given rank (random rank if omitted)."""
    if rank is None:
        rank = int(rng.integers(1, d + 1))
    if not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range for dimension {d}")
    eigs = np.zeros(d)
    eigs[:rank] = scale * rng.uniform(_EIG_LOW, _EIG_HIGH, size=rank)
    return _from_spectrum(PsdOperator, d, rng, eigs)


def random_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Wishart-style state G G* / tr(G G*)."""
    g = _ginibre(d, rng)
    w = g @ g.conj().T
    return DensityOperator(w / np.trace(w).real)


def random_nonsingular_density(d: int, rng: np.random.Generator) -> NonsingularDensity:
    """Invertible state with a moderate condition number."""
    eigs = rng.uniform(_EIG_LOW, _EIG_HIGH, size=d)
    eigs = eigs / eigs.sum()
    return _from_spectrum(NonsingularDensity, d, rng, eigs)


def random_projection(d: int, rng: np.random.Generator) -> RankOneProjection:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return RankOneProjection(v)


def random_ensemble(kind: str, d: int, seed: int, **kwargs):
    """Sample one object of the requested kind, deterministically in the seed.

    Kinds: ``unitary`` (ComplexMatrix), ``density`` (DensityOperator),
    ``pd`` (PdOperator), ``psd_rank_r`` (PsdOperator, optional ``rank=``),
    ``rank_one_projection`` (RankOneProjection).
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if kind not in ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; choose from {ENSEMBLE_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        return ComplexMatrix(haar_unitary(d, rng))
    if kind == "density":
        return random_density(d, rng)
    if kind == "pd":
        return random_pd(d, rng)
    if kind == "psd_rank_r":
        return random_psd(d, rng, rank=kwargs.get("rank"))
    return random_projection(d, rng)
