"""Seeded random ensembles used by tests, property suites and demos.

Sampling is deterministic given the generator state; the generator is
always passed explicitly.  Spectra that are known by construction are
primed into the operator's cache so the samplers stay cheap inside hot
verification loops.

The ``*_stack`` samplers draw ``n`` objects at once, as ``(n, d, d)``
matrices (with their stacked ``SpectralDecomposition`` where the spectrum
is known) or ``(n, d)`` unit vectors; Haar unitaries come from one
stacked QR (Mezzadri, Notices AMS 54, 2007).  A single draw and its stack
run the same code with a leading shape ``()`` or ``(n,)``.  The Haar,
Hermitian and unit-vector stacks read the generator slice after slice,
so slice 0 of a stack is the single draw from the same state.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

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
    "haar_stack",
    "hermitian_stack",
    "pd_stack",
    "psd_stack",
    "nonsingular_density_stack",
    "unit_vector_stack",
]

ENSEMBLE_KINDS = ("unitary", "density", "pd", "psd_rank_r", "rank_one_projection")

# spectra of pd / psd draws are uniform on this window, keeping the
# condition number moderate so divergence identities hold at 1e-9 scales
_EIG_LOW = 0.25
_EIG_HIGH = 1.25


def _complex_normal(lead: tuple, core: tuple, rng: np.random.Generator) -> np.ndarray:
    """Complex standard normal array of shape ``lead + core``, read from the
    stream one ``core`` array after the other, each as its real part then
    its imaginary part."""
    x = rng.standard_normal((*lead, 2, *core))
    # the two parts, indexed on the axis after the lead (cheaper than np.moveaxis)
    lead_axes = (slice(None),) * len(lead)
    return x[(*lead_axes, 0)] + 1j * x[(*lead_axes, 1)]


def _ginibre(lead: tuple, d: int, rng: np.random.Generator) -> np.ndarray:
    return _complex_normal(lead, (d, d), rng) / np.sqrt(2.0)


def _haar(lead: tuple, d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitaries: QR of complex Ginibre matrices, each Q
    times the phases of its R's diagonal.

    The QR runs the gufuncs of ``np.linalg.qr``'s reduced mode,
    ``numpy.linalg._umath_linalg.qr_r_raw`` then ``qr_reduced`` (private
    numpy API), so Q matches it bit for bit; R's diagonal is read off the
    factored array, which ``np.linalg.qr`` would copy into a full ``triu``.
    """
    a = _ginibre(lead, d, rng)
    # factors a in place: R on and above the diagonal, reflectors below
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from QR of a complex Ginibre matrix."""
    return _haar((), d, rng)


def haar_stack(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, d, d)`` Haar-distributed unitaries from one stacked QR (none for n = 0)."""
    if n == 0:
        return np.empty((0, d, d), dtype=np.complex128)
    return _haar((n,), d, rng)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian matrix (entries O(1))."""
    return hermitian_part(_ginibre((), d, rng))


def hermitian_stack(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, d, d)`` GUE-style Hermitian matrices."""
    return hermitian_part(_ginibre((n,), d, rng))


def unit_vector_stack(d: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, d)`` unit vectors, uniform on the complex sphere."""
    v = _complex_normal((n,), (d,), rng)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _spectra(eigs: np.ndarray, rng: np.random.Generator):
    """``(mats, spectrum)`` of ``V diag(eigs) V*`` with Haar V, per row of
    ``eigs``: one operator for ``(d,)`` eigenvalues, a stack for ``(n, d)``.

    Every spectrum the samplers know by construction is built here.
    """
    spec = cluster_eigenpairs(eigs, _haar(eigs.shape[:-1], eigs.shape[-1], rng))
    return spec.reassemble(), spec


def _operator(cls, drawn):
    """The operator of one draw, with its spectrum primed."""
    mat, spec = drawn
    return _unchecked(cls, mat, spectrum=spec)


def _lead(n: int | None) -> tuple:
    return () if n is None else (n,)


def pd_stack(d: int, rng: np.random.Generator, n: int | None, *,
             scale: float | np.ndarray = 1.0):
    """``(mats, spectrum)`` of n draws of ``random_pd`` (of one when n is None);
    ``scale`` is one float, or an ``(n, 1)`` column of one scale per draw."""
    return _spectra(scale * rng.uniform(_EIG_LOW, _EIG_HIGH, size=(*_lead(n), d)), rng)


def random_pd(d: int, rng: np.random.Generator, *, scale: float = 1.0) -> PdOperator:
    """Positive definite operator with eigenvalues uniform in a fixed window."""
    return _operator(PdOperator, pd_stack(d, rng, None, scale=scale))


def psd_stack(d: int, rng: np.random.Generator, n: int | None, *,
              rank: int | None = None, scale: float = 1.0):
    """``(mats, spectrum)`` of n draws of ``random_psd`` (of one when n is
    None), each of a random rank if ``rank`` is omitted."""
    if rank is None:
        ranks = rng.integers(1, d + 1, size=_lead(n))
    elif not 1 <= rank <= d:
        raise ValueError(f"rank {rank} out of range for dimension {d}")
    else:
        ranks = np.full(_lead(n), rank)
    eigs = np.zeros((*_lead(n), d))
    eigs[np.arange(d) < ranks[..., None]] = scale * rng.uniform(
        _EIG_LOW, _EIG_HIGH, size=int(ranks.sum())
    )
    return _spectra(eigs, rng)


def random_psd(d: int, rng: np.random.Generator, *, rank: int | None = None,
               scale: float = 1.0) -> PsdOperator:
    """PSD operator of the given rank (random rank if omitted)."""
    return _operator(PsdOperator, psd_stack(d, rng, None, rank=rank, scale=scale))


def random_density(d: int, rng: np.random.Generator) -> DensityOperator:
    """Wishart-style state G G* / tr(G G*)."""
    g = _ginibre((), d, rng)
    w = g @ g.conj().T
    return DensityOperator(w / np.trace(w).real)


def nonsingular_density_stack(d: int, rng: np.random.Generator, n: int | None):
    """``(mats, spectrum)`` of n draws of ``random_nonsingular_density`` (of
    one when n is None)."""
    eigs = rng.uniform(_EIG_LOW, _EIG_HIGH, size=(*_lead(n), d))
    return _spectra(eigs / eigs.sum(axis=-1, keepdims=True), rng)


def random_nonsingular_density(d: int, rng: np.random.Generator) -> NonsingularDensity:
    """Invertible state with a moderate condition number."""
    return _operator(NonsingularDensity, nonsingular_density_stack(d, rng, None))


def random_projection(d: int, rng: np.random.Generator) -> RankOneProjection:
    return RankOneProjection(_complex_normal((), (d,), rng))


def random_ensemble(kind: str, d: int, seed: int, rank: int | None = None):
    """Sample one object of the requested kind, deterministically in the seed.

    Kinds: ``unitary`` (ComplexMatrix), ``density`` (DensityOperator),
    ``pd`` (PdOperator), ``psd_rank_r`` (PsdOperator, optional ``rank``,
    which no other kind takes), ``rank_one_projection`` (RankOneProjection).
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if kind not in ENSEMBLE_KINDS:
        raise ValueError(f"unknown ensemble kind {kind!r}; choose from {ENSEMBLE_KINDS}")
    if rank is not None and kind != "psd_rank_r":
        raise ValueError(f"rank applies only to psd_rank_r, not to {kind!r}")
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        return ComplexMatrix(haar_unitary(d, rng))
    if kind == "density":
        return random_density(d, rng)
    if kind == "pd":
        return random_pd(d, rng)
    if kind == "psd_rank_r":
        return random_psd(d, rng, rank=rank)
    return random_projection(d, rng)
