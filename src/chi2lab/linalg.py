"""Dense complex Hermitian linear algebra on raw ndarrays.

The eigensolver is a Jacobi iteration in round-robin order: each round
applies up to d/2 disjoint rotations as one unitary (Brent and Luk, SIAM
J. Sci. Stat. Comput. 6, 1985).  At the target scale (d <= 16) it is
deterministic and keeps high relative accuracy on graded positive
matrices (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), which
downstream divergence code relies on when second arguments are nearly
singular.  Norms are not eigensolves: ``op_norm`` takes the largest
singular value.

A spectrum is the solver's eigenpair arrays ``(w, V)``, near-ties merged
by ``cluster_eigenpairs``, and every spectral function is ``(V * f(w)) @ V*``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import SingularOperator, SolverFailure

__all__ = [
    "hermitian_part",
    "hs_norm",
    "op_norm",
    "jacobi_eigh",
    "SpectralDecomposition",
    "spectral_decomposition",
]

_TINY = np.finfo(np.float64).tiny

#: a largest entry within 2^-SAFE_EXP .. 2^SAFE_EXP squares and sums
#: without under- or overflow at d <= 16; outside it, norms and
#: eigensolves first rescale by an exact power of two
_SAFE_EXP = 300


def _prescale_exponent(m: np.ndarray) -> int:
    """Exponent ``e`` with ``2^-e * max |m_ij|`` in [0.5, 1), or 0 when
    the largest entry is already in the safe range, zero or not finite."""
    amax = float(np.abs(m).max()) if m.size else 0.0
    if 2.0**-_SAFE_EXP <= amax <= 2.0**_SAFE_EXP or not 0.0 < amax < np.inf:
        return 0
    return int(np.frexp(amax)[1])


def _ldexp(m: np.ndarray, e: int) -> np.ndarray:
    """Complex ``m * 2^e``, exact unless an entry leaves the normal range."""
    return np.ldexp(np.ascontiguousarray(m).view(np.float64), e).view(np.complex128)


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Return (M + M*) / 2."""
    return (mat + mat.conj().T) / 2.0


def hs_norm(mat: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr M M*).

    Matrices whose largest entry lies outside the safe range are scaled
    by an exact power of two first, so the squares neither underflow
    nor overflow.
    """
    m = np.asarray(mat, dtype=np.complex128)
    e = _prescale_exponent(m)
    if e == 0:
        return float(np.linalg.norm(m))
    return float(np.ldexp(np.linalg.norm(_ldexp(m, -e)), e))


def op_norm(mat: np.ndarray) -> float:
    """Operator norm, i.e. the largest singular value.

    Taken from the singular values (LAPACK SVD), which neither squares
    the condition number nor under- or overflows the way ``M* M`` does.
    """
    m = np.asarray(mat, dtype=np.complex128)
    if m.size == 0 or not m.any():
        return 0.0
    return float(np.linalg.norm(m, 2))


@lru_cache(maxsize=None)
def _round_robin_plan(d: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Raveled ``d x d`` indices for one round-robin Jacobi sweep.

    With ``n = d + d % 2`` players, round ``k`` of the ``n - 1`` rounds
    pairs ``k`` with ``n - 1`` and ``(k + i) % (n - 1)`` with
    ``(k - i) % (n - 1)`` for ``0 < i < n / 2`` (the circle method), so
    each pair ``p < q`` meets exactly once per sweep and no index occurs
    twice in a round.  For odd ``d`` the pair holding the padding index
    ``d`` is dropped.  A round of ``m`` pairs is stored as the indices of
    ``[(p, p)..., (q, q)..., (p, q)..., (q, p)...]``, each block of
    length ``m``.  The second value indexes every off-diagonal entry.
    """
    n = d + d % 2
    rounds = []
    for k in range(n - 1):
        pairs = [(k, n - 1)] + [
            ((k + i) % (n - 1), (k - i) % (n - 1)) for i in range(1, n // 2)
        ]
        pairs = [(min(x), max(x)) for x in pairs if max(x) < d]
        p, q = np.array(pairs, dtype=np.intp).T
        rounds.append(
            np.concatenate([p * (d + 1), q * (d + 1), p * d + q, q * d + p])
        )
    off = np.flatnonzero(~np.eye(d, dtype=bool))
    for idx in (*rounds, off):
        idx.flags.writeable = False
    return tuple(rounds), off


def _off_norm(a: np.ndarray, off: np.ndarray) -> float:
    x = a.take(off)
    return float(np.sqrt(np.vdot(x, x).real))


def jacobi_eigh(
    mat: np.ndarray,
    *,
    max_sweeps: int = DEFAULT_TOL.jacobi_sweeps,
    off_factor: float = DEFAULT_TOL.jacobi_off,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix by round-robin Jacobi rotations.

    Each sweep visits every pair ``p < q`` once, in the rounds of
    ``_round_robin_plan``.  The rotations of a round touch disjoint rows
    and columns, so each is computed from entries no other rotation of
    the round changes, and the round is applied as one unitary ``J``:
    ``a <- J* a J``, ``v <- v J``.  This is cyclic Jacobi with another
    pair order.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in decreasing order
    and eigenvectors in the columns of ``v``.  Convergence is declared
    when the off-diagonal Hilbert-Schmidt norm drops below
    ``off_factor * ||M||_HS``; running out of sweeps raises SolverFailure.
    A matrix whose largest entry lies outside the safe range is solved
    scaled by an exact power of two, and ``w`` scaled back, so tiny
    matrices are rotated rather than taken as already diagonal and huge
    ones do not overflow.
    """
    a = np.array(mat, dtype=np.complex128)
    e = _prescale_exponent(a)
    if e == 0:
        return _jacobi(a, max_sweeps, off_factor)
    w, v = _jacobi(_ldexp(a, -e), max_sweeps, off_factor)
    return np.ldexp(w, e), v


def _jacobi(a: np.ndarray, max_sweeps: int, off_factor: float) -> tuple[np.ndarray, np.ndarray]:
    """``jacobi_eigh`` on a complex array it may overwrite."""
    d = a.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    v = eye.copy()
    scale = float(np.linalg.norm(a))
    if d == 1 or scale == 0.0:
        w = np.real(np.diag(a)).copy()
        order = np.argsort(-w, kind="stable")
        return w[order], v[:, order]
    thresh = off_factor * scale
    rounds, off_idx = _round_robin_plan(d)
    converged = False
    for _ in range(max_sweeps):
        if _off_norm(a, off_idx) <= thresh:
            converged = True
            break
        for idx in rounds:
            m = len(idx) // 4
            entries = a.take(idx)
            app = entries[:m].real
            aqq = entries[m : 2 * m].real
            apq = entries[2 * m : 3 * m]
            # k = 2 sign(aqq - app) / (|aqq - app| + hypot(aqq - app, 2 r)),
            # so t = k r = tan(theta) is the smaller root (|t| <= 1) and
            # k apq = t * phase.  A lane with apq == 0 gets t == 0 (no
            # rotation).  Flooring the denominator at the smallest normal
            # double keeps out 0 / 0 and keeps k finite; it alters only lanes
            # whose entries are subnormal themselves.
            diff = aqq - app
            r = np.abs(apq)
            k = np.copysign(2.0, diff) / np.maximum(
                np.abs(diff) + np.hypot(diff, 2.0 * r), _TINY
            )
            t = k * r
            c = 1.0 / np.hypot(1.0, t)
            cu = c * k * apq
            # J has the block [[c, c t phase], [-conj(c t phase), c]] on (p, q)
            j = eye.copy()
            j.put(idx, np.concatenate([c, c, cu, -cu.conj()]))
            a = j.conj().T @ a @ j
            v = v @ j
            # the rotated diagonal (Rutishauser's update) and the
            # annihilated pair, set exactly
            tr = t * r
            a.put(idx, np.concatenate([app - tr, aqq + tr, np.zeros(2 * m)]))
    if not converged:
        off = _off_norm(a, off_idx)
        if off > thresh:
            raise SolverFailure(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off:.3e}, threshold {thresh:.3e})"
            )
    w = np.real(np.diag(a)).copy()
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """``M = V diag(w) V*``: read-only non-increasing eigenvalues ``w`` and
    a unitary ``v`` with the eigenvectors in its columns.  Equal entries of
    ``w`` span one eigenspace; ``eigenvalues``, ``multiplicities`` and
    ``projections`` are derived views over the distinct eigenvalues.
    """

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.complex128)
        if w.ndim != 1 or len(w) == 0 or v.shape != (len(w), len(w)):
            raise ValueError(f"eigenvalues {w.shape} do not fit eigenvectors {v.shape}")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        # plain floats: is_positive_definite runs on every rank-one query
        object.__setattr__(self, "lmax", float(w[0]))
        object.__setattr__(self, "lmin", float(w[-1]))

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        """The distinct eigenvalues, strictly decreasing."""
        return tuple(dict.fromkeys(self.w.tolist()))

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple(map(self.w.tolist().count, self.eigenvalues))

    @property
    def projections(self) -> tuple[np.ndarray, ...]:
        """Read-only orthogonal eigenprojection of each distinct eigenvalue."""
        out = []
        for lam in self.eigenvalues:
            block = self.v[:, self.w == lam]
            proj = hermitian_part(block @ block.conj().T)
            proj.flags.writeable = False
            out.append(proj)
        return tuple(out)

    def reassemble(self) -> np.ndarray:
        """The Hermitian part of ``V diag(w) V*``."""
        return hermitian_part((self.v * self.w) @ self.v.conj().T)

    def apply(self, fn) -> np.ndarray:
        """Standard operator function ``V diag(f(w)) V*``."""
        f = [fn(lam) for lam in self.w.tolist()]
        return (self.v * f) @ self.v.conj().T

    def shift(self, offset: float) -> "SpectralDecomposition":
        """Decomposition of M + offset * I (same eigenvectors)."""
        return replace(self, w=self.w + offset)

    def scale(self, factor: float) -> "SpectralDecomposition":
        """Decomposition of factor * M for factor > 0."""
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return replace(self, w=factor * self.w)

    def power(
        self,
        p: float,
        *,
        pseudo: bool = False,
        support_rel: float = DEFAULT_TOL.support,
    ) -> np.ndarray:
        """Fractional (pseudo) power ``V diag(w^p) V*`` over the support.

        Eigenvalues at or below ``support_rel * lmax`` count as kernel and
        map to zero.  Negative powers of a singular operator require
        ``pseudo=True``, otherwise SingularOperator is raised.
        """
        cutoff = support_rel * max(self.lmax, 0.0)
        if self.lmin > cutoff:
            f = self.w**p
        elif p < 0.0 and not pseudo:
            raise SingularOperator(
                "negative power of a singular operator; pass pseudo=True "
                "for the support-restricted pseudo-power"
            )
        else:
            above = self.w > cutoff
            f = np.zeros(len(self.w))
            f[above] = self.w[above] ** p
        return (self.v * f) @ self.v.conj().T

    def support(self, support_rel: float = DEFAULT_TOL.support) -> np.ndarray:
        """Orthogonal projection onto the span of the above-cutoff eigenspaces
        (zero for the zero operator)."""
        cutoff = support_rel * max(self.lmax, 0.0)
        return (self.v * (self.w > cutoff)) @ self.v.conj().T

    def is_positive_definite(self, pd_rel: float = DEFAULT_TOL.pd) -> bool:
        return self.lmax > 0.0 and self.lmin > pd_rel * self.lmax

    def validate(self, source: np.ndarray | None = None, rtol: float = 1e-10):
        """Check the invariants, and the reassembly of ``source`` when given;
        raises AssertionError.  ``v* v = I`` within 1e-10 makes the
        eigenprojections Hermitian, idempotent, orthogonal and complete."""
        gram = np.max(np.abs(self.v.conj().T @ self.v - np.eye(len(self.w))))
        if not gram <= 1e-10:
            raise AssertionError(f"eigenvectors not orthonormal (|V*V - I| = {gram:.1e})")
        if not np.all(self.w[:-1] >= self.w[1:]):
            raise AssertionError("eigenvalues not non-increasing")
        if source is not None and not (
            op_norm(self.reassemble() - source) <= rtol * max(1.0, abs(self.lmax))
        ):
            raise AssertionError("reassembly does not match the source")


def complete_to_unitary(x: np.ndarray) -> np.ndarray:
    """A unitary whose first column is the unit vector ``x`` up to a phase.

    The Householder reflector ``I - 2 u u* / |u|^2`` with ``u = e_0 +
    conj(phase(x_0)) x`` (phase 1 at ``x_0 = 0``); its first column is
    ``-conj(phase(x_0)) x`` and ``|u|^2 = 2 + 2 |x_0| >= 2``.
    """
    x = np.asarray(x, dtype=np.complex128)
    x0 = complex(x[0])
    u = x * (x0.conjugate() / abs(x0) if x0 else 1.0)
    u[0] += 1.0
    return np.eye(len(x), dtype=np.complex128) - np.outer(u, (2.0 / np.vdot(u, u).real) * u.conj())


def cluster_eigenpairs(
    w: np.ndarray, v: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> SpectralDecomposition:
    """Sort eigenpairs by decreasing eigenvalue and merge near-ties.

    ``v`` holds orthonormal eigenvectors in its columns.  Neighbours that
    sit within ``tol.cluster * max(1, |lmax|)`` chain-merge into one
    eigenspace whose eigenvalue is their mean.  Every spectrum built from
    eigenpairs, computed or known by construction, goes through here.
    """
    w = np.asarray(w, dtype=np.float64)
    order = np.argsort(-w, kind="stable")
    vals = w[order].tolist()
    delta = tol.cluster * max(1.0, abs(vals[0]))
    merged: list[float] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i - 1] - vals[i] > delta:
            run = vals[start:i]
            merged += [sum(run) / len(run)] * len(run)
            start = i
    return SpectralDecomposition(np.array(merged), np.asarray(v)[:, order])


def spectral_decomposition(
    mat: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> SpectralDecomposition:
    """Eigendecompose a Hermitian ndarray and cluster near-ties.

    Eigenvalues closer than ``tol.cluster * max(1, lmax)`` chain-merge
    into one eigenspace (see ``cluster_eigenpairs``).
    """
    w, v = jacobi_eigh(
        mat, max_sweeps=tol.jacobi_sweeps, off_factor=tol.jacobi_off
    )
    return cluster_eigenpairs(w, v, tol)
