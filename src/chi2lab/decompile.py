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
     scale, at the mixing weight _EPSILON / 2.  One request serves all
     three scales: per scale its whole probe plan, the orthogonality
     pairs [a; b] of stage 4, their unit sums a + b, then the d^2 probe
     family of stage 5, each row once, in first-seen order.  Each row
     calls phi once, in that order, then the first d rows (orthogonality
     rows, which lead) call it again at _EPSILON, a stability sample
     whose top vectors must agree across the two weights.  The rounding
     then runs once, on the (scale, row) stack of every output; a zero or
     non-finite output rounds to a NaN top vector, which fails the
     rounding and every later test of its scale;
  4. orthogonality and transition checks, one stack for all scales,
     read from the images by index with no map call;
  5. synthesis of the implementing (anti)unitary per scale, read the
     same way;
  6. cross-scale consistency of the synthesized operators up to phase,
     every scale pair of one kind in one stack;
  7. verification of phi(A) = U A U* (or the antiunitary variant) on
     fresh samples.

Violations do not abort the pipeline: each failed stage is recorded so
the report localizes which preserver property broke.  Every stage test
reads ``not residual <= tol``, so a NaN residual fails its stage.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import combinations

import numpy as np

from .divergence import Alpha
from .ensembles import pd_stack
from .errors import Chi2LabError
from .linalg import SpectralDecomposition, _dots, _hs_squares, hermitian_part
from .matio import matrix_to_obj
from .operators import PdOperator, _unchecked, _unit_rows
from .wigner import (
    UNITARY,
    ConjugationMap,
    _family_rows,
    _overlap_drifts,
    _sample_pairs,
    _synthesize,
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
def _probe_plan(d: int, seed: int) -> tuple[np.ndarray, ...]:
    """Every row stages 4 and 5 image at one scale, as one read-only stack in
    first-seen order: the orthogonality pairs ``[a; b]`` of
    ``_sample_pairs(d, _CHECK_SAMPLES, seed)``, their unit sums ``a + b``
    (the transition check's other rows), then ``_family_rows(d)``; each
    row once, with the bytes the checks and the synthesis send.  From
    d = 5 on the pairs are basis pairs alone, and the plan is the family.

    Returned beside the rows, as read-only indices into them: the rows
    ``[a; b]`` of the orthogonality check, ``[a; a; b; a + b]`` of the
    transition check, and the family."""
    a, b = _sample_pairs(d, _CHECK_SAMPLES, seed)
    m = len(a)
    rows = np.concatenate([_unit_rows(np.concatenate([a, b, a + b])), _family_rows(d)[0]])
    keys: dict[bytes, int] = {}
    at = np.array([keys.setdefault(row.tobytes(), len(keys)) for row in rows])
    pa, pb, sums = at[:m], at[m:2 * m], at[2 * m:3 * m]
    index = (np.concatenate([pa, pb]), np.concatenate([pa, pa, pb, sums]), at[3 * m:])
    for idx in index:
        idx.flags.writeable = False
    return np.frombuffer(b"".join(keys), dtype=np.complex128).reshape(-1, d), *index


def _phase_aligned_distance(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Per pair of ``(..., d, d)`` stacks, ``||u1 u2* - c I||_op`` with
    ``c = tr / |tr|`` for ``tr = tr(u1 u2*)``, or ``c = 1`` when
    ``|tr| < 1e-12``.

    An upper bound on the minimum over unimodular c, not the minimum
    itself, so it errs toward flagging ``scale-consistency``: ``u1 = I``
    and ``u2 = diag(1, -1)`` read 2 where the minimum is sqrt(2).
    """
    m = u1 @ u2.conj().swapaxes(-1, -2)
    # c per pair in scalar arithmetic: the stacked np.abs may round |tr|
    # differently from abs, and c would move the distance by an ulp
    c = np.array([t / abs(t) if abs(t) >= 1e-12 else 1.0
                  for t in np.trace(m, axis1=-2, axis2=-1).reshape(-1)])
    c = c.reshape(m.shape[:-2])[..., None, None]
    return np.linalg.norm(m - c * np.eye(m.shape[-1]), 2, axis=(-2, -1))


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
    one request before stage 4, all three scales in turn, so the rounding
    runs once for every scale and the checks and the synthesis make no
    map call.  Samples and probes carry the default tolerances.  A zero
    or non-finite map output is recorded as a failed stage, not raised.
    """
    Alpha(alpha)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    phi = _CountingMap(phi)
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    eye = np.eye(d, dtype=np.complex128)

    # stage 1: trace preservation
    diffs = []
    for sample in _samples(d, rng, _TRACE_SAMPLES):
        diffs.append(abs(phi(sample).trace() - sample.trace()))
        if not diffs[-1] <= _TRACE_TOL * max(1.0, sample.trace()):
            if "trace" not in failures:
                failures.append("trace")
    trace_residual = float(np.max(diffs))
    stage_queries = {"trace": phi.count}

    # stages 2-3: one request images every row stages 4 and 5 read, scale
    # after scale: each row at _EPSILON / 2, then the first d, that scale's
    # stability sample, at _EPSILON; those stages make no map call.  The
    # outputs of all scales are rounded as one (scale, row) stack
    plan, orth, trans, family = _probe_plan(d, seed + 1)
    n = len(plan)
    v = np.concatenate([plan, plan[:d]])[:, :, None]
    eps = np.repeat([_EPSILON / 2.0, _EPSILON], [n, d])[:, None, None]
    states = (1.0 - eps) * (v * v.conj().swapaxes(-1, -2)) + (eps / d) * eye
    lams = np.array(_SCALES)[:, None, None, None]
    # one read-only stack, so each input wraps its slice without a copy
    inputs = (lams * states).reshape(-1, d, d)
    inputs.flags.writeable = False
    outs = [phi(_unchecked(PdOperator, m)).mat for m in inputs]
    # a zero, overflowing or non-finite output rounds to a NaN top vector,
    # which fails every test below instead of raising or warning
    with np.errstate(all="ignore"):
        outs = np.array(outs).reshape(len(_SCALES), n + d, d, d) / lams
        tops, bounds = _top_vector(hermitian_part(outs))
    stability = 1.0 - np.abs(_dots(tops[:, :d], tops[:, n:])) ** 2
    if not np.maximum(bounds.max(), stability.max()) <= _ROUNDING_TOL:
        failures.append("projection-rounding")
    tops = tops[:, :n].reshape(-1, d)
    finite = np.isfinite(tops).all(axis=1)
    images = np.full_like(tops, np.nan)
    images[finite] = _unit_rows(tops[finite])
    images = images.reshape(len(_SCALES), n, d)

    # stage 4: orthogonality and transition checks, every scale at once
    orth_residual = float(_overlap_drifts(plan[orth], images[:, orth]).max())
    trans_residual = float(_overlap_drifts(plan[trans], images[:, trans]).max())
    orthogonality_pass = orth_residual <= _ORTHOGONALITY_TOL
    if not orthogonality_pass:
        failures.append("orthogonality")
    if not trans_residual <= _TRANSITION_TOL:
        failures.append("transition")

    # stage 5: Wigner synthesis per scale
    synthesized: dict[float, ConjugationMap] = {}
    for lam, iv in zip(_SCALES, images[:, family]):
        try:
            synthesized[lam] = _synthesize(iv, d)
        except Chi2LabError:
            failures.append(f"wigner(scale={lam:g})")

    # stage 6: cross-scale consistency up to a unimodular factor, every
    # scale pair of one kind at once
    pairs = []
    for a, b in combinations(synthesized.values(), 2):
        if a.kind != b.kind:
            if "kind-mismatch" not in failures:
                failures.append("kind-mismatch")
            continue
        pairs.append((a.u, b.u))
    scale_residual = 0.0
    if pairs:
        u1, u2 = np.array(pairs).swapaxes(0, 1)
        scale_residual = float(_phase_aligned_distance(u1, u2).max())
    if not scale_residual <= _SCALE_TOL:
        failures.append("scale-consistency")

    # stage 7: final verification on fresh samples
    stage_queries["images"] = phi.count - stage_queries["trace"]
    if synthesized:
        preferred = 1.0 if 1.0 in synthesized else min(synthesized)
        recovered = synthesized[preferred].normalize_phase()
    else:
        failures.append("synthesis")
        recovered = ConjugationMap(np.eye(d), UNITARY)
    samples = _samples(d, rng, _VERIFY_SAMPLES)
    drifts = (np.array([phi(sample).mat for sample in samples])
              - recovered.apply(np.array([sample.mat for sample in samples])))
    # a non-finite output has no operator norm: its drift reads NaN
    finite = np.isfinite(drifts).all(axis=(-2, -1))
    norms = np.full(len(drifts), np.nan)
    norms[finite] = np.linalg.norm(drifts[finite], 2, axis=(-2, -1))
    verify_residual = float(norms.max())
    if not verify_residual <= _VERIFY_TOL:
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
