"""Typed operator hierarchy on a finite-dimensional complex Hilbert space.

``ComplexMatrix`` wraps a validated square array; ``HermitianMatrix``
symmetrizes on construction; ``PsdOperator`` admits eigenvalues down to a
small negative floor, which its spectrum clamps to zero; ``PdOperator``
additionally requires a spectral gap above zero; ``DensityOperator``
fixes the trace to one.  All instances are immutable.  Each solves its
clustered eigendecomposition at most once and caches it, so repeated
spectral queries against the same operator cost one factorization:
``PsdOperator`` and ``DensityOperator`` certify membership by a shifted
Cholesky factorization and solve on the first ``spectrum()`` call, while
``PdOperator`` and ``NonsingularDensity`` solve at construction.  A
``PsdOperator``'s ``mat`` is the Hermitian part of its input, unclamped.
Membership and ``support_contained`` try bounds from the diagonal and the
Frobenius norm first and take an operator norm (an SVD) only when those
do not decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import (
    DimensionMismatch,
    NotDensity,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveSemidefinite,
)
from .linalg import (
    _SAFE_EXP,
    SpectralDecomposition,
    _cholesky_or_nan,
    _ldexp,
    _prescale_exponents,
    hermitian_part,
    hs_norm,
    op_norm,
    spectral_decomposition,
)

__all__ = [
    "ComplexMatrix",
    "HermitianMatrix",
    "PsdOperator",
    "PdOperator",
    "DensityOperator",
    "NonsingularDensity",
    "RankOneProjection",
    "eigh",
    "frac_power",
    "support_projection",
    "support_contained",
    "norms",
    "projection_family",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """A d x d complex matrix with finite entries."""

    mat: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        # a complex entry is finite when both its parts are
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "mat", self._admit(m))

    def _admit(self, m: np.ndarray) -> np.ndarray:
        """The read-only array held for the checked ``m`` (maybe the caller's)."""
        return _freeze(m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


class HermitianMatrix(ComplexMatrix):
    """Selfadjoint matrix; construction symmetrizes via (M + M*) / 2."""

    def _admit(self, m: np.ndarray) -> np.ndarray:
        """The Hermitian part of ``m``, new, so frozen without a copy.  The
        asymmetry bound's scale ``max(1, ||sym||_HS)`` is at least 1, so an
        asymmetry within ``tol.hermitian`` passes without the norm."""
        sym = hermitian_part(m)
        asym = float(np.abs(m - sym).max())
        tol = self.tol.hermitian
        if asym > tol and asym > tol * max(1.0, hs_norm(sym)):
            raise NotHermitian(f"asymmetry {asym:.3e} exceeds {tol:.1e} * scale")
        sym.flags.writeable = False
        return sym

    def spectrum(self) -> SpectralDecomposition:
        """Clustered eigendecomposition, computed on the first call and cached."""
        cached = self.__dict__.get("_spectrum")
        if cached is None:
            cached = self._solve()
            self.__dict__["_spectrum"] = cached
        return cached

    def _solve(self) -> SpectralDecomposition:
        return spectral_decomposition(self.mat, self.tol)


def _clamped(spec: SpectralDecomposition) -> SpectralDecomposition:
    """``spec`` with its negative eigenvalues raised to 0."""
    return replace(spec, w=np.maximum(spec.w, 0.0)) if spec.lmin < 0.0 else spec


def _factors(h: np.ndarray) -> bool:
    """Whether the Hermitian ``h`` has a Cholesky factor."""
    return bool(np.isfinite(_cholesky_or_nan(h)).all())


def _cholesky_certifies_psd(m: np.ndarray, rel: float) -> bool:
    """Whether ``m + rel * max(1, ||m||_op) * I`` has a Cholesky factor.

    Success shows that no eigenvalue of the Hermitian ``m`` lies below
    ``-rel * max(1, ||m||_op)``, up to the factorization's backward error
    of order ``d * u * ||m||`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, ch. 10); failure shows nothing.  LAPACK
    only decides here and produces no output bits.  The first factor is of
    ``m + rel * max(1, max |m_ii|) * I``: as ``|m_ii| <= ||m||_op``, that
    shift is at most the full one, so success there is success at the full
    shift, and only when it fails is ``||m||_op`` taken (an SVD) for a second
    factor at the full shift, if that one differs.  A matrix whose largest
    entry lies above the safe range is factored scaled by an exact power of
    two, where its norm, above 1 before scaling, sets the shift.
    """
    eye = np.eye(len(m))
    e = _prescale_exponents(m)
    if e is not None and e > 0:
        m = _ldexp(m, -e)
        return _factors(m + rel * op_norm(m) * eye)
    first = float(np.abs(m.diagonal()).max(initial=1.0))
    if _factors(m + rel * first * eye):
        return True
    full = max(1.0, op_norm(m))
    return full != first and _factors(m + rel * full * eye)


class PsdOperator(HermitianMatrix):
    """Positive semidefinite operator: no eigenvalue below the floor
    ``-tol.psd * max(1, lmax)``.

    Membership is certified by ``_cholesky_certifies_psd``, with no
    eigensolve; when the factorization fails, the eigenvalue test decides,
    and its spectrum is kept.  Otherwise the spectrum is solved on the
    first ``spectrum()`` call.  Either way negative eigenvalues of the
    spectrum clamp to 0, while ``mat`` stays the Hermitian part of the
    input, so the two differ by at most the floor.
    """

    #: skip the certificate and decide by the eigenvalues at construction,
    #: for subclasses whose own check reads the spectrum anyway
    _solve_eagerly = False

    def __post_init__(self):
        super().__post_init__()
        if not self._solve_eagerly and _cholesky_certifies_psd(self.mat, self.tol.psd):
            return
        spec = spectral_decomposition(self.mat, self.tol)
        floor = -self.tol.psd * max(1.0, spec.lmax)
        if spec.lmin < floor:
            raise NotPositiveSemidefinite(
                f"eigenvalue {spec.lmin:.3e} below PSD floor {floor:.3e}"
            )
        if spec.lmax == np.inf and not self._solve_eagerly:
            # an eigenvalue beyond the float maximum makes the floor -inf, so
            # the eigenvalue test cannot overrule the failed certificate
            raise NotPositiveSemidefinite(
                "eigenvalue beyond the float maximum, and the Cholesky test fails"
            )
        self.__dict__["_spectrum"] = _clamped(spec)

    def _solve(self) -> SpectralDecomposition:
        return _clamped(super()._solve())


class PdOperator(PsdOperator):
    """Positive definite (invertible positive) operator; the spectrum is
    solved at construction to check the gap."""

    _solve_eagerly = True

    def __post_init__(self):
        super().__post_init__()
        spec, scaled = self.spectrum(), ""
        if spec.lmax == np.inf:
            # the gap test would read inf on its right: decide it on the
            # spectrum of mat scaled by an exact power of two
            e = int(_prescale_exponents(self.mat))
            spec = spectral_decomposition(_ldexp(self.mat, -e), self.tol)
            scaled = f" (of the matrix scaled by 2^-{e})"
        if not spec.is_positive_definite(self.tol.pd):
            raise NotPositiveDefinite(
                f"lmin {spec.lmin:.3e} does not clear "
                f"{self.tol.pd:.1e} * lmax {spec.lmax:.3e}{scaled}"
            )


class DensityOperator(PsdOperator):
    """Unit-trace positive semidefinite operator (a quantum state)."""

    def __post_init__(self):
        super().__post_init__()
        tr = self.trace()
        if abs(tr - 1.0) > self.tol.trace_one:
            raise NotDensity(f"trace {tr!r} is not 1 within {self.tol.trace_one}")


class NonsingularDensity(DensityOperator, PdOperator):
    """Invertible density operator."""


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """A C-contiguous complex vector, or each row of an ``(n, d)`` stack, at
    unit norm; a row's norm is summed as ``np.linalg.norm`` sums a vector,
    so its bytes do not depend on the stack.  Raises ValueError on a
    non-finite or (near) zero row."""
    # the largest real or imaginary part: finite even where the modulus
    # of a finite entry overflows
    parts = np.abs(v.view(np.float64))
    top = np.maximum.reduce(parts, None, initial=0.0)
    if not top < np.inf:
        raise ValueError("vector entries must be finite")
    if top > 2.0**_SAFE_EXP:
        # an exact power-of-two prescale keeps the squared norm finite; on
        # the small side every row is rejected as near zero anyway
        amax = parts.max(axis=-1, initial=0.0, keepdims=True)
        v = _ldexp(v, -np.where(amax > 2.0**_SAFE_EXP, np.frexp(amax)[1], 0))
    re, im = v.real, v.imag
    if v.ndim == 1:
        n = float(np.sqrt(re.dot(re) + im.dot(im)))
        small = n < 1e-12
    else:
        n = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
        small = n.min(initial=1.0) < 1e-12
        n = n[:, None]
    if small:
        raise ValueError("cannot project along a (near) zero vector")
    return v / n


@dataclass(frozen=True, eq=False)
class RankOneProjection:
    """Rank-one projection v v* for a unit vector v."""

    vector: np.ndarray

    def __post_init__(self):
        v = _unit_rows(np.ascontiguousarray(self.vector, dtype=np.complex128).reshape(-1))
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        cached = self.__dict__.get("_matrix")
        if cached is None:
            cached = _freeze(np.outer(self.vector, self.vector.conj()))
            self.__dict__["_matrix"] = cached
        return cached

    def overlap(self, other: "RankOneProjection") -> float:
        """Transition probability tr(P Q) = |<v, w>|^2."""
        amp = np.vdot(self.vector, other.vector)
        return float(abs(amp) ** 2)


def _unchecked(cls, mat: np.ndarray, *, tol: Tolerances = DEFAULT_TOL,
               spectrum: SpectralDecomposition | None = None):
    """Wrap an array in an operator type without running invariant checks.

    Internal fast path for values that are positive (semi)definite by
    construction; callers are responsible for the invariant.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "mat", _freeze(mat))
    object.__setattr__(obj, "tol", tol)
    if spectrum is not None:
        obj.__dict__["_spectrum"] = spectrum
    return obj


def eigh(m: HermitianMatrix) -> SpectralDecomposition:
    """Clustered eigendecomposition of a Hermitian operator."""
    return m.spectrum()


def frac_power(a: PsdOperator, p: float, *, pseudo: bool = False) -> HermitianMatrix:
    """Spectral power A^p with kernel directions mapped to zero.

    For p < 0 the operator must be positive definite unless ``pseudo``
    requests the support-restricted pseudo-power.
    """
    if not -1.0 <= p <= 1.0:
        raise ValueError(f"power {p} outside [-1, 1]")
    out = a.spectrum().power(p, pseudo=pseudo, support_rel=a.tol.support)
    return HermitianMatrix(out, a.tol)


def support_projection(a: PsdOperator) -> np.ndarray:
    """Orthogonal projection onto the range of a PSD operator."""
    return a.spectrum().support(a.tol.support)


def _require_same_dim(a, b) -> None:
    """Raise DimensionMismatch unless ``a`` and ``b`` act on the same space."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")


def support_contained(a: PsdOperator, b: PsdOperator) -> bool:
    """Whether supp A lies inside supp B.

    True iff the compression ``X`` of A onto the kernel of B has
    ``||X||_op <= tol.support * max(1, ||A||_op)``.  Frobenius norms settle
    most pairs without an SVD: ``||X||_F <= tol.support * max(1, max |a_ii|)``
    is inside that bound and ``||X||_F / sqrt(d) > tol.support * max(1,
    ||A||_F)`` is outside it, since ``||X||_F / sqrt(d) <= ||X||_op <=
    ||X||_F`` and ``max |a_ii| <= ||A||_op <= ||A||_F``.  Only a leak
    between the two takes the operator norms.
    """
    _require_same_dim(a, b)
    comp = np.eye(a.dim) - support_projection(b)
    x = comp @ a.mat @ comp
    tau, leak = a.tol.support, hs_norm(x)
    if leak <= tau * np.abs(a.mat.diagonal()).max(initial=1.0):
        return True
    if leak / np.sqrt(a.dim) > tau * max(1.0, hs_norm(a.mat)):
        return False
    leak = op_norm(x)
    # the threshold's second norm is taken only when the leak clears tol.support
    return leak <= tau or leak <= tau * op_norm(a.mat)


def norms(m: ComplexMatrix | np.ndarray) -> tuple[float, float]:
    """Return (Hilbert-Schmidt norm, operator norm)."""
    arr = m.mat if isinstance(m, ComplexMatrix) else np.asarray(m, dtype=np.complex128)
    return hs_norm(arr), op_norm(arr)


@lru_cache(maxsize=16)
def projection_family(d: int) -> tuple[RankOneProjection, ...]:
    """The standard tomographically complete family of d^2 projections.

    Order: the d basis projections P_{e_i}; then P_{(e_i + e_j)/sqrt2}
    and P_{(e_i + i e_j)/sqrt2} for each pair i < j, in
    ``np.triu_indices(d, 1)`` order.  Overlaps with this family determine
    any Hermitian matrix.  The family of each of the latest 16 dimensions
    is built once: every call returns the same tuple of immutable
    projections.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(d, dtype=np.complex128)
    i, j = np.triu_indices(d, 1)
    pairs = np.stack([eye[i] + eye[j], eye[i] + 1j * eye[j]], axis=1)
    rows = np.concatenate([eye, pairs.reshape(-1, d)])
    return tuple(RankOneProjection(v) for v in rows)


def hermitian_from_overlaps(values: np.ndarray, d: int,
                            tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Solve tr(X P) = values over ``projection_family(d)`` for Hermitian X.

    The family makes the system triangular: diagonal entries come from
    the basis projections, real and imaginary parts of X_ij from the
    two superposition probes of the pair (i, j).
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (d * d,):
        raise ValueError(f"expected {d * d} overlaps, got {vals.shape}")
    i, j = np.triu_indices(d, 1)
    mean = (vals[i] + vals[j]) / 2.0
    re = vals[d::2] - mean
    im = mean - vals[d + 1::2]
    x = np.diag(vals[:d].astype(np.complex128))
    x[i, j] = re + 1j * im
    x[j, i] = re - 1j * im
    return HermitianMatrix(x, tol)
