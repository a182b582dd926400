"""End-to-end decompiler for divergence-preserving maps on the PD cone.

Given black-box access to a bijective map phi that preserves the
chi-squared divergence of some order, every stage of the structure
argument is run numerically:

  1. trace preservation on random samples;
  2. per scale lambda, restriction to states via phi(lambda A) / lambda;
  3. location of the images of rank-one projections by evaluating the
     restricted map on slightly mixed states and rounding to the top
     eigenprojection, read by power iteration and certified by the
     Davis-Kahan residual bound; each projection is imaged once per
     scale, at the mixing weight _EPSILON / 2.  Each scale makes one
     request, its whole probe plan: the orthogonality pairs [a; b] of
     stage 4, their unit sums a + b, then the d^2 probe family of stage
     5, each row once, in first-seen order.  Each row calls phi once, in
     that order, then the first d rows (orthogonality rows, which lead)
     call it again at _EPSILON, a stability sample whose top vectors
     must agree across the two weights, and the rounding runs once on
     the stack of outputs;
  4. orthogonality and transition-probability checks, one stack each,
     read from the scale's images with no map call;
  5. synthesis of the implementing (anti)unitary per scale, one stack,
     read the same way;
  6. cross-scale consistency of the synthesized operators up to phase;
  7. verification of phi(A) = U A U* (or the antiunitary variant) on
     fresh samples.

Violations do not abort the pipeline: each failed stage is recorded so
the report localizes which preserver property broke.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .divergence import Alpha
from .ensembles import pd_stack
from .errors import Chi2LabError
from .linalg import SpectralDecomposition, _dots, _hs_squares, hermitian_part, op_norm
from .matio import matrix_to_obj
from .operators import PdOperator, _unchecked, _unit_rows
from .wigner import (
    UNITARY,
    ConjugationMap,
    ProjectionMap,
    _family_rows,
    _sample_pairs,
    check_orthogonality_preservation,
    check_transition_probabilities,
    wigner_synthesize,
)

__all__ = ["DecompileReport", "preserver_decompile"]

_SCALES = (0.5, 1.0, 2.0)
#: mixing weight for rounding extremal states away from the boundary
_EPSILON = 1e-4
#: power-iteration matvecs per top vector; each shrinks the other
#: eigen-directions of a near-rank-one image by about _EPSILON / d
_POWER_STEPS = 4
_TRACE_SAMPLES = 8
_CHECK_SAMPLES = 10
_VERIFY_SAMPLES = 8
_TRACE_TOL = 1e-8
_ROUNDING_TOL = 1e-6
_ORTHOGONALITY_TOL = 1e-8
_TRANSITION_TOL = 1e-8
_SCALE_TOL = 1e-5
_VERIFY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class DecompileReport:
    recovered: ConjugationMap
    trace_preservation_residual: float
    orthogonality_pass: bool
    orthogonality_residual: float
    transition_residual: float
    scale_consistency_residual: float
    verification_residual: float
    query_count: int
    stage_queries: dict[str, int]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        # the first field, recovered, serializes as kind and u
        obj = {"kind": self.recovered.kind, "u": matrix_to_obj(self.recovered.u)}
        obj.update((f.name, getattr(self, f.name)) for f in fields(self)[1:])
        obj["stage_queries"] = dict(self.stage_queries)
        obj["failures"] = list(self.failures)
        return obj


class _CountingMap:
    def __init__(self, phi):
        self._phi = phi
        self.count = 0

    def __call__(self, a: PdOperator) -> PdOperator:
        self.count += 1
        return self._phi(a)


def _top_vector(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top eigenvector of a Hermitian matrix, or of each matrix of a stack
    such as ``(n, d, d)``, and a bound on its error.

    Power iteration from the column with the largest diagonal entry.
    With ``rho = x* h x`` and ``r = h x - rho x``, every other eigenvalue
    has ``|mu| <= s = sqrt(||h||_F^2 - rho^2)``, so the Davis-Kahan
    residual bound (Parlett, *The Symmetric Eigenvalue Problem*, 1998)
    gives ``sin angle(x, v_1) <= ||r|| / (rho - s)``.  When ``rho <= s``
    no gap is certified and the bound is ``inf``.
    """
    start = np.argmax(np.diagonal(h, axis1=-2, axis2=-1).real, axis=-1)
    x = np.take_along_axis(h, start[..., None, None], axis=-1)[..., 0]
    for _ in range(_POWER_STEPS):
        x = (h @ x[..., None])[..., 0]
        x = x / np.sqrt(_dots(x, x).real)[..., None]
    hx = (h @ x[..., None])[..., 0]
    rho = _dots(x, hx).real
    r = hx - rho[..., None] * x
    gap = rho - np.sqrt(np.maximum(_hs_squares(h) - rho * rho, 0.0))
    bound = np.full_like(gap, np.inf)
    np.divide(np.sqrt(_dots(r, r).real), gap, out=bound, where=gap > 0.0)
    return x, bound


def _samples(d: int, rng: np.random.Generator, n: int) -> list[PdOperator]:
    """n ``random_pd`` draws at scales uniform in [0.5, 1.5], as one stack;
    each keeps its primed spectrum, so reading it runs no eigensolve."""
    mats, spec = pd_stack(d, rng, n, scale=rng.uniform(0.5, 1.5, size=(n, 1)))
    return [_unchecked(PdOperator, m, spectrum=SpectralDecomposition(w, v))
            for m, w, v in zip(mats, spec.w, spec.v)]


@lru_cache(maxsize=16)
def _probe_plan(d: int, seed: int) -> np.ndarray:
    """Every row stages 4 and 5 image at one scale, as one read-only stack in
    first-seen order: the orthogonality pairs ``[a; b]`` of
    ``_sample_pairs(d, _CHECK_SAMPLES, seed)``, their unit sums ``a + b``
    (the transition check's other rows), then ``_family_rows(d)``; each
    row once, with the bytes the checks and the synthesis send.  From
    d = 5 on the pairs are basis pairs alone, and the plan is the family."""
    a, b = _sample_pairs(d, _CHECK_SAMPLES, seed)
    rows = np.concatenate([_unit_rows(np.concatenate([a, b, a + b])), _family_rows(d)])
    keys = dict.fromkeys(row.tobytes() for row in rows)
    return np.frombuffer(b"".join(keys), dtype=np.complex128).reshape(-1, d)


def _phase_aligned_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """``||u1 u2* - c I||_op`` with ``c = tr / |tr|`` for ``tr = tr(u1 u2*)``,
    or ``c = 1`` when ``|tr| < 1e-12``.

    An upper bound on the minimum over unimodular c, not the minimum
    itself, so it errs toward flagging ``scale-consistency``: ``u1 = I``
    and ``u2 = diag(1, -1)`` read 2 where the minimum is sqrt(2).
    """
    m = u1 @ u2.conj().T
    tr = np.trace(m)
    if abs(tr) < 1e-12:
        return float(op_norm(m - np.eye(m.shape[0])))
    c = tr / abs(tr)
    return float(op_norm(m - c * np.eye(m.shape[0])))


def preserver_decompile(
    phi,
    d: int,
    alpha: float,
    *,
    seed: int = 0,
) -> DecompileReport:
    """Recover the conjugation implementing a divergence-preserving map.

    ``phi`` is a callable PdOperator -> PdOperator, assumed (not
    verified globally) to be a bijective preserver; violations surface
    as stage-labeled failures in the report.  ``seed`` seeds the random
    samples of stages 1 and 7.  Both stage-4 checks take every basis pair
    ``(e_i, e_j)`` first, then seeded Haar pairs up to _CHECK_SAMPLES (10),
    so only d <= 4 draws any: d = 6 checks its 15 basis pairs alone.
    Each scale images its whole probe plan (``_probe_plan``: the stage-4
    pairs, their sums, then the stage-5 probe family, each row once) in
    one request before stage 4, so the rounding runs once per scale and
    the checks and the synthesis make no map call.  Samples and probes
    carry the default tolerances.
    """
    Alpha(alpha)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = _CountingMap(phi)
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    eye = np.eye(d, dtype=np.complex128)

    # stage 1: trace preservation
    trace_residual = 0.0
    for sample in _samples(d, rng, _TRACE_SAMPLES):
        diff = abs(phi(sample).trace() - sample.trace())
        trace_residual = max(trace_residual, diff)
        if diff > _TRACE_TOL * max(1.0, sample.trace()):
            if "trace" not in failures:
                failures.append("trace")
    stage_queries = {"trace": phi.count}

    # stages 2-3: per scale, one request images every row stages 4 and 5
    # read: each row at _EPSILON / 2, then the first d, this scale's
    # stability sample, at _EPSILON; those stages make no map call
    plan = _probe_plan(d, seed + 1)
    n = len(plan)
    v = np.concatenate([plan, plan[:d]])[:, :, None]
    eps = np.repeat([_EPSILON / 2.0, _EPSILON], [n, d])[:, None, None]
    states = (1.0 - eps) * (v * v.conj().swapaxes(-1, -2)) + (eps / d) * eye
    keys = [row.tobytes() for row in plan]

    def restricted_projection_map(lam: float) -> ProjectionMap:
        outs = [phi(_unchecked(PdOperator, m)).mat for m in lam * states]
        tops, bounds = _top_vector(hermitian_part(np.array(outs) / lam))
        stability = 1.0 - np.abs(_dots(tops[:d], tops[n:])) ** 2
        if max(bounds.max(), stability.max()) > _ROUNDING_TOL:
            if "projection-rounding" not in failures:
                failures.append("projection-rounding")
        images = dict(zip(keys, tops))
        return ProjectionMap(lambda rows: np.array([images[row.tobytes()] for row in rows]))

    maps = {lam: restricted_projection_map(lam) for lam in _SCALES}

    # stage 4: orthogonality and transition checks per scale
    orth_residual = 0.0
    trans_residual = 0.0
    for lam, xi in maps.items():
        _, worst_orth = check_orthogonality_preservation(
            xi, d, samples=_CHECK_SAMPLES, seed=seed + 1
        )
        _, worst_trans = check_transition_probabilities(
            xi, d, samples=_CHECK_SAMPLES, seed=seed + 1
        )
        orth_residual = max(orth_residual, worst_orth)
        trans_residual = max(trans_residual, worst_trans)
    orthogonality_pass = orth_residual <= _ORTHOGONALITY_TOL
    if not orthogonality_pass:
        failures.append("orthogonality")
    if trans_residual > _TRANSITION_TOL:
        failures.append("transition")

    # stage 5: Wigner synthesis per scale
    synthesized: dict[float, ConjugationMap] = {}
    for lam, xi in maps.items():
        try:
            synthesized[lam] = wigner_synthesize(xi, d)
        except Chi2LabError:
            failures.append(f"wigner(scale={lam:g})")

    # stage 6: cross-scale consistency up to a unimodular factor
    scale_residual = 0.0
    lams = sorted(synthesized)
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            a, b = synthesized[lams[i]], synthesized[lams[j]]
            if a.kind != b.kind:
                if "kind-mismatch" not in failures:
                    failures.append("kind-mismatch")
                continue
            scale_residual = max(scale_residual, _phase_aligned_distance(a.u, b.u))
    if scale_residual > _SCALE_TOL:
        failures.append("scale-consistency")

    # stage 7: final verification on fresh samples
    stage_queries["images"] = phi.count - stage_queries["trace"]
    if synthesized:
        preferred = 1.0 if 1.0 in synthesized else lams[0]
        recovered = synthesized[preferred].normalize_phase()
    else:
        failures.append("synthesis")
        recovered = ConjugationMap(np.eye(d), UNITARY)
    samples = _samples(d, rng, _VERIFY_SAMPLES)
    drifts = (np.array([phi(sample).mat for sample in samples])
              - np.array([recovered.apply(sample.mat) for sample in samples]))
    verify_residual = float(np.linalg.norm(drifts, 2, axis=(-2, -1)).max())
    if verify_residual > _VERIFY_TOL:
        failures.append("verification")
    stage_queries["verification"] = phi.count - sum(stage_queries.values())

    return DecompileReport(
        recovered=recovered,
        trace_preservation_residual=trace_residual,
        orthogonality_pass=orthogonality_pass,
        orthogonality_residual=orth_residual,
        transition_residual=trans_residual,
        scale_consistency_residual=scale_residual,
        verification_residual=verify_residual,
        query_count=phi.count,
        stage_queries=stage_queries,
        failures=tuple(failures),
    )
