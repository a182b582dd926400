"""Symmetry synthesis for maps on rank-one projections.

A bijection of the rank-one projections that preserves transition
probabilities tr(P Q) is implemented by a unitary or an antiunitary
operator (Wigner's theorem).  ``wigner_synthesize`` makes that
constructive: it reads the operator off the images of a finite probe
family, fixes all phases, decides the (anti)unitary character from a
complex-superposition probe, and certifies the result against every
probe image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .ensembles import haar_stack
from .errors import InconsistentSymmetry, NotASymmetry
from .linalg import _dots, op_norm
from .operators import (PdOperator, RankOneProjection, _freeze, _unchecked, _unit_rows,
                        projection_family)

__all__ = [
    "ConjugationMap",
    "ProjectionMap",
    "conjugation_projection_map",
    "check_orthogonality_preservation",
    "check_transition_probabilities",
    "wigner_synthesize",
]

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"


@dataclass(frozen=True, eq=False)
class ConjugationMap:
    """A congruence A -> U A U* (unitary) or A -> U conj(A) U* (antiunitary)."""

    u: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (UNITARY, ANTIUNITARY):
            raise ValueError(f"kind must be {UNITARY!r} or {ANTIUNITARY!r}")
        u = np.asarray(self.u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("U must be square")
        defect = u.conj().T @ u - np.eye(u.shape[0])
        # ||.||_op <= ||.||_F: a Frobenius defect within the bound accepts U
        # without the SVD; any other is decided on the operator norm
        if not np.linalg.norm(defect) <= 1e-8 and op_norm(defect) > 1e-8:
            raise ValueError(f"U is not unitary: ||U*U - I||_op = {op_norm(defect):.3e}")
        u = u.copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @property
    def is_antiunitary(self) -> bool:
        return self.kind == ANTIUNITARY

    def apply(self, mat: np.ndarray) -> np.ndarray:
        a = np.conj(mat) if self.is_antiunitary else mat
        return self.u @ a @ self.u.conj().T

    def apply_vector(self, vec: np.ndarray) -> np.ndarray:
        v = np.conj(vec) if self.is_antiunitary else vec
        return self.u @ v

    def as_preserver(self) -> Callable[[PdOperator], PdOperator]:
        """The induced map on the positive definite cone (for decompiler tests).

        Each image carries the tolerances of its argument.
        """

        def phi(a: PdOperator) -> PdOperator:
            return _unchecked(PdOperator, self.apply(a.mat), tol=a.tol)

        return phi

    def normalize_phase(self) -> "ConjugationMap":
        """Fix the global phase: largest entry of the first column real positive."""
        col = self.u[:, 0]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) == 0.0:
            return self
        return ConjugationMap(self.u * (abs(pivot) / pivot), self.kind)


@dataclass(frozen=True)
class ProjectionMap:
    """A map of rank-one projections: ``fn`` takes the ``(n, d)`` unit rows of
    n projections to ``(n, d)`` image rows, which the map scales to unit norm
    with ``RankOneProjection``'s checks.  A ``RankOneProjection`` is imaged
    as the stack of one."""

    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, rows):
        one = isinstance(rows, RankOneProjection)
        rows = rows.vector[None] if one else rows
        out = np.ascontiguousarray(self.fn(rows), dtype=np.complex128)
        if out.shape != rows.shape:
            raise ValueError(f"projection map returned shape {out.shape} for rows {rows.shape}")
        return RankOneProjection(out[0]) if one else _unit_rows(out)


def conjugation_projection_map(conj: ConjugationMap) -> ProjectionMap:
    return ProjectionMap(lambda rows: conj.apply_vector(rows.T).T)


@lru_cache(maxsize=16)
def _family_rows(d: int) -> np.ndarray:
    """The unit vectors of ``projection_family(d)`` as one read-only stack."""
    return _freeze(np.array([p.vector for p in projection_family(d)]))


@lru_cache(maxsize=16)
def _sample_pairs(d: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pair plan as two read-only ``(n, d)`` stacks of orthogonal
    rows: every ``(e_i, e_j)`` in ``np.triu_indices`` order, then seeded Haar
    pairs up to ``samples``, each the first two columns of one unitary of a
    Haar stack."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    eye = np.eye(d, dtype=np.complex128)
    i, j = np.triu_indices(d, 1)
    a, b = eye[i], eye[j]
    if samples > len(i):
        q = haar_stack(d, np.random.default_rng(seed), samples - len(i))
        a, b = np.concatenate([a, q[:, :, 0]]), np.concatenate([b, q[:, :, 1]])
    return _freeze(a), _freeze(b)


def _overlap_drifts(xi: ProjectionMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|tr(xi(P) xi(R)) - tr(P R)|`` for P, R along each pair of rows of
    ``a`` and ``b``; both stacks reach ``xi`` as one stack of unit rows."""
    n = len(a)
    rows = _unit_rows(np.concatenate([a, b]))
    images = xi(rows)
    before, after = _dots(rows[:n], rows[n:]), _dots(images[:n], images[n:])
    return np.abs(np.abs(after) ** 2 - np.abs(before) ** 2)


def check_orthogonality_preservation(
    xi: ProjectionMap, d: int, samples: int = 20, seed: int = 0
) -> tuple[bool, float]:
    """Verify tr(xi(P) xi(Q)) vanishes on orthogonal pairs P, Q.

    Returns (all pairs within 1e-8, worst residual).
    """
    worst = float(_overlap_drifts(xi, *_sample_pairs(d, samples, seed)).max())
    return worst <= 1e-8, worst


def check_transition_probabilities(
    xi: ProjectionMap, d: int, samples: int = 20, seed: int = 0
) -> tuple[bool, float]:
    """Verify |tr(xi(P) xi(R)) - tr(P R)| <= 1e-8 on sampled pairs.

    Each orthogonal pair (a, b) of ``_sample_pairs(d, samples, seed)``
    gives two checks, (a, b) and (a, a + b), so with the same seed this
    images the vectors of ``check_orthogonality_preservation`` plus the
    sums.  Returns (all pairs within 1e-8, worst residual).
    """
    a, b = _sample_pairs(d, samples, seed)
    # a + b stays unnormalised: _unit_rows scales it to the same bytes as
    # the (e_i + e_j) probe of projection_family
    drifts = _overlap_drifts(xi, np.concatenate([a, a]), np.concatenate([b, a + b]))
    worst = float(drifts.max())
    return worst <= 1e-8, worst


def wigner_synthesize(xi: ProjectionMap, d: int) -> ConjugationMap:
    """Construct the (anti)unitary implementing a symmetry of the projections.

    The map is evaluated once, on the stack of the standard d^2 probe
    family only.  Raises NotASymmetry if the probe images violate
    transition probabilities beyond 1e-6 or the basis images are not
    orthonormal within ConjugationMap's 1e-8, and InconsistentSymmetry if
    no phase assignment or kind reproduces the images within 1e-7.
    """
    pv = _family_rows(d)
    iv = xi(pv)
    drift = np.abs(np.abs(iv.conj() @ iv.T) ** 2 - np.abs(pv.conj() @ pv.T) ** 2)
    off = np.argwhere(np.triu(drift > 1e-6, 1))
    if off.size:
        i, j = off[0]
        raise NotASymmetry(
            f"probe pair ({i}, {j}) transition probability off by {drift[i, j]:.3e}"
        )
    # basis images fix the columns up to phase
    cols = iv[:d].copy()
    nz = np.flatnonzero(np.abs(cols[0]) > 1e-8)[0]
    cols[0] *= abs(cols[0, nz]) / cols[0, nz]
    # projection_family: d basis probes, then per pair i < j in triu_indices
    # order (e_i + e_j) and (e_i + i e_j); the pairs (0, j) lead, so
    # (e_0 + e_j) sits at d + 2(j - 1) and (e_0 + i e_1) at d + 1
    w = iv[d:3 * d - 2:2]
    a0 = w @ cols[0].conj()
    aj = _dots(cols[1:], w)
    weak = np.flatnonzero((np.abs(a0) < 1e-6) | (np.abs(aj) < 1e-6))
    if weak.size:
        raise InconsistentSymmetry(
            f"superposition probe (0, {weak[0] + 1}) does not overlap both columns"
        )
    ratio = aj / a0
    cols[1:] *= (ratio / np.abs(ratio))[:, None]
    try:
        kinds = [ConjugationMap(cols.T, kind) for kind in (UNITARY, ANTIUNITARY)]
    except ValueError as exc:
        # the 1e-6 drift bound lets basis images overlap by up to 1e-3
        raise NotASymmetry(f"basis probe images are not orthonormal: {exc}") from None
    # the imaginary probe (e_0 + i e_1)/sqrt2 separates the two kinds:
    # its image matches U v for a unitary and U conj(v) for an antiunitary
    candidates = []
    for cand in kinds:
        predicted = _unit_rows(cand.apply_vector(pv[d + 1]))
        if 1.0 - abs(np.vdot(iv[d + 1], predicted)) ** 2 <= 1e-7:
            candidates.append(cand)
    if not candidates:
        raise InconsistentSymmetry(
            "probe images match neither the unitary nor the antiunitary action"
        )
    result = candidates[0]
    # for unit vectors p, q: ||p p* - q q*||_op = ||q - p (p* q)||, free of
    # the cancellation in sqrt(1 - |p* q|^2)
    pred = result.apply_vector(pv.T).T
    pred /= np.linalg.norm(pred, axis=1)[:, None]
    misses = np.linalg.norm(iv - pred * _dots(pred, iv)[:, None], axis=1)
    bad = np.flatnonzero(misses > 1e-7)
    if bad.size:
        raise InconsistentSymmetry(
            f"synthesized map misses a probe image by {misses[bad[0]]:.3e}"
        )
    return result
