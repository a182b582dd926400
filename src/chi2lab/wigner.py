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
from typing import Callable

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InconsistentSymmetry, NotASymmetry
from .linalg import op_norm
from .operators import PdOperator, RankOneProjection, _unchecked, projection_family

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
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.kind not in (UNITARY, ANTIUNITARY):
            raise ValueError(f"kind must be {UNITARY!r} or {ANTIUNITARY!r}")
        u = np.asarray(self.u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("U must be square")
        defect = op_norm(u.conj().T @ u - np.eye(u.shape[0]))
        if defect > 1e-8:
            raise ValueError(f"U is not unitary: ||U*U - I||_op = {defect:.3e}")
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
        """The induced map on the positive definite cone (for decompiler tests)."""

        def phi(a: PdOperator) -> PdOperator:
            return _unchecked(PdOperator, self.apply(a.mat), tol=self.tol)

        return phi

    def normalize_phase(self) -> "ConjugationMap":
        """Fix the global phase: largest entry of the first column real positive."""
        col = self.u[:, 0]
        idx = int(np.argmax(np.abs(col)))
        pivot = col[idx]
        if abs(pivot) == 0.0:
            return self
        return ConjugationMap(self.u * (abs(pivot) / pivot), self.kind, self.tol)


@dataclass(frozen=True)
class ProjectionMap:
    """A map from rank-one projections to rank-one projections."""

    fn: Callable[[RankOneProjection], RankOneProjection]

    def __call__(self, p: RankOneProjection) -> RankOneProjection:
        out = self.fn(p)
        if not isinstance(out, RankOneProjection):
            raise TypeError("projection map must return RankOneProjection")
        return out


def conjugation_projection_map(conj: ConjugationMap) -> ProjectionMap:
    return ProjectionMap(lambda p: RankOneProjection(conj.apply_vector(p.vector)))


def _sample_pairs(d: int, samples: int, seed: int):
    """Deterministic pair plan: canonical orthogonal pairs, then seeded Haar ones."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=np.complex128)
    pairs = []
    for i in range(d):
        for j in range(i + 1, d):
            pairs.append((eye[:, i], eye[:, j]))
    while len(pairs) < samples:
        g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        pairs.append((q[:, 0], q[:, 1]))
    return pairs


def check_orthogonality_preservation(
    xi: ProjectionMap, d: int, samples: int = 20, seed: int = 0
) -> tuple[bool, float]:
    """Verify tr(xi(P) xi(Q)) vanishes on orthogonal pairs P, Q.

    Returns (all pairs within 1e-8, worst residual).
    """
    worst = 0.0
    for vp, vq in _sample_pairs(d, samples, seed):
        p = RankOneProjection(vp)
        q = RankOneProjection(vq)
        worst = max(worst, xi(p).overlap(xi(q)))
    return worst <= 1e-8, worst


def check_transition_probabilities(
    xi: ProjectionMap, d: int, samples: int = 20, seed: int = 0
) -> tuple[bool, float]:
    """Verify |tr(xi(P) xi(R)) - tr(P R)| <= 1e-8 on sampled pairs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    pairs = []
    eye = np.eye(d, dtype=np.complex128)
    for i in range(d):
        for j in range(i + 1, d):
            pairs.append((eye[:, i], eye[:, j]))
            pairs.append((eye[:, i], (eye[:, i] + eye[:, j]) / np.sqrt(2)))
    while len(pairs) < samples:
        vp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vr = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pairs.append((vp, vr))
    for vp, vr in pairs:
        p = RankOneProjection(vp)
        r = RankOneProjection(vr)
        residual = abs(xi(p).overlap(xi(r)) - p.overlap(r))
        worst = max(worst, residual)
    return worst <= 1e-8, worst


def wigner_synthesize(xi: ProjectionMap, d: int,
                      tol: Tolerances = DEFAULT_TOL) -> ConjugationMap:
    """Construct the (anti)unitary implementing a symmetry of the projections.

    The map is evaluated on the standard d^2 probe family only.  Raises
    NotASymmetry if the probe images violate transition probabilities
    beyond 1e-6, and InconsistentSymmetry if no phase assignment or kind
    reproduces the images within 1e-7.
    """
    probes = projection_family(d, tol)
    images = [xi(p) for p in probes]
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            drift = abs(images[i].overlap(images[j]) - probes[i].overlap(probes[j]))
            if drift > 1e-6:
                raise NotASymmetry(
                    f"probe pair ({i}, {j}) transition probability off by {drift:.3e}"
                )
    # basis images fix the columns up to phase
    cols = [images[i].vector.copy() for i in range(d)]
    first = cols[0]
    nz = np.flatnonzero(np.abs(first) > 1e-8)[0]
    cols[0] = first * (abs(first[nz]) / first[nz])
    # probes (e_0 + e_j)/sqrt2 sit right after the basis block, pairs in
    # lexicographic order: (0,1), (0,2), ..., each contributing a real and
    # an imaginary-superposition probe
    def pair_index(i: int, j: int) -> int:
        # offset of pair (i, j), i < j, inside the pair block
        preceding = sum(d - 1 - k for k in range(i))
        return d + 2 * (preceding + (j - i - 1))

    for j in range(1, d):
        w = images[pair_index(0, j)].vector
        a0 = np.vdot(cols[0], w)
        aj = np.vdot(cols[j], w)
        if abs(a0) < 1e-6 or abs(aj) < 1e-6:
            raise InconsistentSymmetry(
                f"superposition probe (0, {j}) does not overlap both columns"
            )
        ratio = aj / a0
        cols[j] = cols[j] * (ratio / abs(ratio))
    u = np.column_stack(cols)
    # the imaginary probe (e_0 + i e_1)/sqrt2 separates the two kinds:
    # its image matches U v for a unitary and U conj(v) for an antiunitary
    probe_vec = (np.eye(d, dtype=np.complex128)[:, 0]
                 + 1j * np.eye(d, dtype=np.complex128)[:, 1]) / np.sqrt(2)
    image = images[pair_index(0, 1) + 1]
    candidates = []
    for kind in (UNITARY, ANTIUNITARY):
        cand = ConjugationMap(u, kind, tol)
        predicted = RankOneProjection(cand.apply_vector(probe_vec))
        if 1.0 - image.overlap(predicted) <= 1e-7:
            candidates.append(cand)
    if not candidates:
        raise InconsistentSymmetry(
            "probe images match neither the unitary nor the antiunitary action"
        )
    result = candidates[0]
    proj_map = conjugation_projection_map(result)
    for probe, image in zip(probes, images):
        drift = op_norm(proj_map(probe).matrix - image.matrix)
        if drift > 1e-7:
            raise InconsistentSymmetry(
                f"synthesized map misses a probe image by {drift:.3e}"
            )
    return result
