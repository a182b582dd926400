"""Dense complex Hermitian linear algebra on raw ndarrays.

The eigensolver is a Jacobi iteration in round-robin order: each round
applies up to d/2 disjoint rotations as one unitary (Brent and Luk, SIAM
J. Sci. Stat. Comput. 6, 1985).  At the target scale (d <= 16) it is
deterministic and keeps high relative accuracy on graded positive
matrices (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992), which
downstream divergence code relies on when second arguments are nearly
singular.  Norms are not eigensolves: ``op_norm`` takes the largest
singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Return (M + M*) / 2."""
    return (mat + mat.conj().T) / 2.0


def hs_norm(mat: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr M M*)."""
    return float(np.linalg.norm(np.asarray(mat, dtype=np.complex128)))


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
    """
    a = np.array(mat, dtype=np.complex128)
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
    """Clustered eigendecomposition with strictly decreasing eigenvalues.

    ``projections[j]`` is the orthogonal eigenprojection of
    ``eigenvalues[j]`` and ``multiplicities[j]`` its rank.  The clusters
    partition the identity.
    """

    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        if not (
            len(self.eigenvalues)
            == len(self.projections)
            == len(self.multiplicities)
        ):
            raise ValueError("inconsistent decomposition lengths")
        for p in self.projections:
            p.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]

    @property
    def lmax(self) -> float:
        return self.eigenvalues[0]

    @property
    def lmin(self) -> float:
        return self.eigenvalues[-1]

    def reassemble(self) -> np.ndarray:
        out = np.zeros_like(self.projections[0])
        for lam, proj in zip(self.eigenvalues, self.projections):
            out = out + lam * proj
        return out

    def apply(self, fn) -> np.ndarray:
        """Standard operator function sum_j f(lambda_j) P_j."""
        out = np.zeros_like(self.projections[0])
        for lam, proj in zip(self.eigenvalues, self.projections):
            out = out + fn(lam) * proj
        return out

    def shift(self, offset: float) -> "SpectralDecomposition":
        """Decomposition of M + offset * I (same projections)."""
        return SpectralDecomposition(
            tuple(lam + offset for lam in self.eigenvalues),
            self.projections,
            self.multiplicities,
        )

    def scale(self, factor: float) -> "SpectralDecomposition":
        """Decomposition of factor * M for factor > 0."""
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        return SpectralDecomposition(
            tuple(factor * lam for lam in self.eigenvalues),
            self.projections,
            self.multiplicities,
        )

    def power(
        self,
        p: float,
        *,
        pseudo: bool = False,
        support_rel: float = DEFAULT_TOL.support,
    ) -> np.ndarray:
        """Fractional (pseudo) power sum_j lambda_j^p P_j over the support.

        Eigenvalues at or below ``support_rel * lmax`` count as kernel and
        map to zero.  Negative powers of a singular operator require
        ``pseudo=True``, otherwise SingularOperator is raised.
        """
        cutoff = support_rel * max(self.lmax, 0.0)
        out = np.zeros_like(self.projections[0])
        skipped = False
        for lam, proj in zip(self.eigenvalues, self.projections):
            if lam > cutoff:
                out = out + (lam**p) * proj
            else:
                skipped = True
        if skipped and p < 0.0 and not pseudo:
            raise SingularOperator(
                "negative power of a singular operator; pass pseudo=True "
                "for the support-restricted pseudo-power"
            )
        return out

    def support(self, support_rel: float = DEFAULT_TOL.support) -> np.ndarray:
        """Orthogonal projection onto the span of the above-cutoff eigenspaces."""
        cutoff = support_rel * max(self.lmax, 0.0)
        out = np.zeros_like(self.projections[0])
        any_above = False
        for lam, proj in zip(self.eigenvalues, self.projections):
            if lam > cutoff:
                out = out + proj
                any_above = True
        if not any_above:
            # zero operator: empty support
            return np.zeros_like(self.projections[0])
        return out

    def is_positive_definite(self, pd_rel: float = DEFAULT_TOL.pd) -> bool:
        return self.lmax > 0.0 and self.lmin > pd_rel * self.lmax

    def validate(self, source: np.ndarray | None = None, rtol: float = 1e-10):
        """Check the structural invariants; raises AssertionError on failure."""
        d = self.dim
        eye = np.eye(d)
        total = np.zeros((d, d), dtype=np.complex128)
        for j, proj in enumerate(self.projections):
            assert np.max(np.abs(proj - proj.conj().T)) < 1e-10
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10
            for k in range(j + 1, len(self.projections)):
                assert np.max(np.abs(proj @ self.projections[k])) < 1e-10
            total = total + proj
        assert np.max(np.abs(total - eye)) < 1e-9
        for j in range(len(self.eigenvalues) - 1):
            assert self.eigenvalues[j] > self.eigenvalues[j + 1]
        for proj, mult in zip(self.projections, self.multiplicities):
            assert abs(np.trace(proj).real - mult) < 1e-8
        if source is not None:
            scale = max(1.0, abs(self.lmax))
            assert op_norm(self.reassemble() - source) <= rtol * scale


def cluster_eigenpairs(
    w: np.ndarray, v: np.ndarray, delta: float
) -> SpectralDecomposition:
    """Chain-merge eigenpairs whose eigenvalues sit within ``delta``.

    ``w`` must be sorted decreasing with orthonormal eigenvectors in the
    columns of ``v``; the merged eigenvalues are strictly decreasing.
    """
    d = len(w)
    values: list[float] = []
    projections: list[np.ndarray] = []
    multiplicities: list[int] = []
    start = 0
    for i in range(1, d + 1):
        if i < d and (w[i - 1] - w[i]) <= delta:
            continue
        block = v[:, start:i]
        proj = block @ block.conj().T
        values.append(float(np.mean(w[start:i])))
        projections.append(hermitian_part(proj))
        multiplicities.append(i - start)
        start = i
    return SpectralDecomposition(
        tuple(values), tuple(projections), tuple(multiplicities)
    )


def spectral_decomposition(
    mat: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> SpectralDecomposition:
    """Eigendecompose a Hermitian ndarray and cluster near-ties.

    Eigenvalues closer than ``tol.cluster * max(1, lmax)`` chain-merge
    into a single eigenprojection so the returned eigenvalues are
    strictly decreasing.
    """
    w, v = jacobi_eigh(
        mat, max_sweeps=tol.jacobi_sweeps, off_factor=tol.jacobi_off
    )
    delta = tol.cluster * max(1.0, abs(w[0]))
    return cluster_eigenpairs(w, v, delta)
