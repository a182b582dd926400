"""Dense complex Hermitian linear algebra on raw ndarrays.

The eigensolver is a Jacobi iteration in round-robin order: each round
applies up to d/2 disjoint rotations as one unitary (Brent and Luk, SIAM
J. Sci. Stat. Comput. 6, 1985), built as its real ``(2d, 2d)`` form in
the layout of ``SpectralDecomposition._real_v`` and applied by real
matmuls on float views, since BLAS multiplies small real stacks several
times faster than complex ones.  Each matrix takes one of two routes,
chosen from the matrix alone: one with a Cholesky factor ``H = L L*``
(positive definite) and a nonzero off-diagonal entry is solved by
one-sided Jacobi on the columns of ``L W``, with ``W`` the eigenbasis of
``L* L`` from LAPACK as a preconditioner, so that at most a sweep or two
remain; every other one (indefinite, singular PSD, exactly diagonal, or
d = 1) by two-sided Jacobi on the matrix itself, which returns an exactly
diagonal matrix as it is, with no rotation.  At the target scale
(d <= 16) the solver is deterministic and keeps high relative accuracy
on graded positive definite matrices (Demmel and Veselic, SIAM J. Matrix
Anal. Appl. 13, 1992), which downstream divergence code relies on when
second arguments are nearly singular.  A solve sorts its eigenpairs
once and allocates rotation workspace only when a sweep runs.  Norms are
not eigensolves: ``op_norm`` takes the largest singular value.

A spectrum is the solver's eigenpair arrays ``(w, V)``, near-ties merged
by ``cluster_eigenpairs``, and every spectral function is ``(V * f(w)) @ V*``.
The support rule of the powers lives in ``SpectralDecomposition._powers``,
which returns ``f(w)`` to ``power`` and to the divergence kernel alike.

Stacks: ``jacobi_eigh``, ``cluster_eigenpairs``, ``spectral_decomposition``
and ``SpectralDecomposition`` also take an ``(n, d, d)`` stack of
matrices, with ``(n, d)`` eigenvalues, and treat each slice on its own.
One sweep loop serves both routes and both shapes; a 2-D call is the
n = 1 case.  Each slice of a stacked solve gets its own prescale, route
and convergence threshold and is frozen once converged, every LAPACK
call and per-slice reduction is the one a single solve makes, and a
mixed stack is factored by one Cholesky call, so slice k equals the 2-D
solve of that slice bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, wraps

import numpy as np
from numpy.linalg import _umath_linalg

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

#: Jacobi's stopping threshold and default sweep cap (see ``jacobi_eigh``)
_OFF = 1e-14
_MAX_SWEEPS = 100

#: a largest entry within 2^-SAFE_EXP .. 2^SAFE_EXP squares and sums
#: without under- or overflow at d <= 16; outside it, norms and
#: eigensolves first rescale by an exact power of two
_SAFE_EXP = 300

#: per-order arrays a spectrum keeps (``_kept_per_order``), and orders ``tomography._design`` keeps
_CACHED_ORDERS = 16


def _prescale_exponents(m: np.ndarray) -> np.ndarray | None:
    """Per matrix of a ``(..., d, d)`` array, the exponent ``e`` with the
    largest real or imaginary part times ``2^-e`` in [0.5, 1), or 0 when
    the largest entry is already in the safe range, zero or not finite;
    None when every exponent is 0."""
    amax = np.abs(m).max(axis=(-2, -1), initial=0.0)
    lo, hi = ((float(amax),) * 2 if amax.ndim == 0
              else (amax.min(initial=np.inf), amax.max(initial=0.0)))
    if 2.0**-_SAFE_EXP <= lo and hi <= 2.0**_SAFE_EXP:
        return None
    # the modulus of a finite entry may overflow; its parts do not
    amax = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1), initial=0.0)
    safe = (2.0**-_SAFE_EXP <= amax) & (amax <= 2.0**_SAFE_EXP)
    safe |= ~((0.0 < amax) & (amax < np.inf))
    if safe.all():
        return None
    return np.where(safe, 0, np.frexp(amax)[1])


def _ldexp(m: np.ndarray, e) -> np.ndarray:
    """Complex ``m * 2^e``, exact unless an entry leaves the normal range;
    ``e`` broadcasts against ``m``'s shape with the last axis doubled."""
    return np.ldexp(np.ascontiguousarray(m).view(np.float64), e).view(np.complex128)


def _dots(x: np.ndarray, y: np.ndarray):
    """``sum conj(x) y`` over the last axis, one BLAS dot per row, so each
    entry equals ``np.vdot`` of its rows bit for bit (two vectors go to
    ``np.vdot`` itself)."""
    if x.ndim == 1 and y.ndim == 1:
        return np.vdot(x, y)
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def _hs_squares(m: np.ndarray) -> np.ndarray:
    """``tr M M*`` per matrix of ``(..., d, d)``, summed as ``np.linalg.norm``
    sums a complex matrix: one BLAS dot over the real parts, one over the
    imaginary parts."""
    re = m.real.reshape(*m.shape[:-2], 1, -1)
    im = m.imag.reshape(*m.shape[:-2], 1, -1)
    return (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Return (M + M*) / 2, per matrix of a stack.

    A matrix whose largest entry lies above the safe range is scaled by an
    exact power of two first, so a sum of two finite entries above half
    the float maximum does not overflow.
    """
    # a squared norm within 4^SAFE_EXP (a cheaper test than the entries) keeps
    # every entry in the safe range; inf or nan fails it
    e = None if np.vdot(mat, mat).real <= 4.0**_SAFE_EXP else _prescale_exponents(mat)
    if e is None:
        return (mat + mat.conj().swapaxes(-1, -2)) / 2.0
    e = e[..., None, None]
    m = _ldexp(np.asarray(mat, dtype=np.complex128), -e)
    return _ldexp((m + m.conj().swapaxes(-1, -2)) / 2.0, e)


def hs_norm(mat: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(tr M M*).

    Matrices whose largest entry lies outside the safe range are scaled
    by an exact power of two first, so the squares neither underflow
    nor overflow.  A norm beyond the float maximum is ``inf``.
    """
    m = np.asarray(mat, dtype=np.complex128)
    e = _prescale_exponents(m)
    # np.linalg.norm's sum without its wrapper: a dot over the real parts
    # plus one over the imaginary parts, in memory order
    x = (m if e is None else _ldexp(m, -e)).ravel(order="K")
    norm = np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    if e is None:
        return float(norm)
    with np.errstate(over="ignore"):
        return float(np.ldexp(norm, e))


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
        p, q = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        rounds.append(
            np.concatenate([p * (d + 1), q * (d + 1), p * d + q, q * d + p])
        )
    off = np.flatnonzero(~np.eye(d, dtype=bool))
    for idx in (*rounds, off):
        idx.flags.writeable = False
    return tuple(rounds), off


@lru_cache(maxsize=64)
def _stacked_plan(d: int, n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The rounds of ``_round_robin_plan(d)`` for an ``(n, d, d)`` stack.

    A round of ``m`` pairs becomes the raveled indices of a ``(4, n, m)``
    layout: block ``b`` (``(p, p)``, ``(q, q)``, ``(p, q)``, ``(q, p)``) of
    every slice in turn, so each per-lane quantity of the round is one
    contiguous 1-D array over all slices.  Each comes with the indices, in
    an ``(n, 2d, 2d)`` real stack, of the 12 entries per pair of the real
    form (``SpectralDecomposition._real_v``'s layout) of the round's unitary
    ``J``, for the values ``[c, c, c, c, u, u, -u, -u]``: the lanes' cosines
    ``c`` and ``u = J[p, q]`` as interleaved real and imaginary parts.  For
    n = 1 both index the 2-D arrays.
    """
    rounds, _ = _round_robin_plan(d)
    base = (d * d) * np.arange(n)[:, None]
    rbase = (4 * d * d) * np.arange(n)[:, None, None]
    out = []
    for idx in rounds:
        # entry (i, j) of J sits at (2i, 2j) of its real form as rr, with
        # ri = (2i, 2j + 1), ir = (2i + 1, 2j) and ii = (2i + 1, 2j + 1)
        i, j = np.divmod(idx.reshape(4, -1), d)
        rr = 4 * d * i + 2 * j
        ri, ir, ii = rr + 1, rr + 2 * d, rr + 2 * d + 1
        cos = [rr[0], ii[0], rr[1], ii[1]]
        u = [(rr[2], ri[2]), (ii[2], ri[3]), (rr[3], ir[2]), (ii[3], ir[3])]
        rot = [x + rbase[..., 0] for x in cos] + [np.stack(x, -1) + rbase for x in u]
        pair = ((idx.reshape(4, 1, -1) + base).ravel(), np.concatenate([x.ravel() for x in rot]))
        for x in pair:
            x.flags.writeable = False
        out.append(pair)
    return tuple(out)


def jacobi_eigh(
    mat: np.ndarray, *, max_sweeps: int = _MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix, or each slice of an ``(n, d, d)``
    stack, by round-robin Jacobi rotations.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted in decreasing order
    and eigenvectors in the columns of ``v`` (shapes ``(n, d)`` and
    ``(n, d, d)`` for a stack).  A slice whose largest entry lies outside
    the safe range is solved scaled by an exact power of two, and its ``w``
    scaled back, so tiny matrices are rotated rather than taken as already
    diagonal and huge ones do not overflow.  An eigenvalue beyond the
    float maximum comes back as ``inf`` or ``-inf``.

    Each slice then takes one of two routes, chosen from the slice alone:

    - A slice ``H`` with a Cholesky factor ``H = L L*`` and a nonzero
      off-diagonal entry: one-sided
      (Hestenes) Jacobi on the columns of ``Y = L W`` (``_one_sided``).
      ``W`` is the eigenbasis of ``L* L`` from LAPACK ``eigh``, a
      preconditioner (Drmac and Veselic, SIAM J. Matrix Anal. Appl. 29,
      2008) that leaves the columns nearly orthogonal: random positive
      definite slices need no sweep, graded ones about one.  As
      ``Y Y* = H``, once the columns are orthogonal the eigenvalues are
      their squared norms and the eigenvectors the columns over their
      norms.  The slice has converged when the Gram matrix ``G = Y* Y``
      has ``max |G_pq| / sqrt(G_pp G_qq) <= _OFF`` (1e-14), checked once
      per sweep.
    - Every other slice (indefinite, singular but PSD, exactly diagonal,
      or d = 1): two-sided Jacobi on the slice itself (``_two_sided``).  It
      has converged when its off-diagonal Hilbert-Schmidt norm drops below
      ``_OFF`` times its own ``||M||_HS``, so an exactly diagonal
      slice comes back as its diagonal, with ``v = I``, before any sweep.

    Both routes run one sweep loop, ``_sweeps``.  A sweep leaves each
    converged slice as it is and visits every pair ``p < q`` of the others
    once, in the rounds of ``_round_robin_plan``; a solve that needs no
    sweep allocates no rotation workspace.  A round's rotations touch
    disjoint rows and columns, so it is one unitary ``J``, built as its real
    ``(2d, 2d)`` form in ``SpectralDecomposition._real_v``'s layout and
    applied by real matmuls on float views.  The two-sided route sets
    ``a <- J* a J`` (as ``y = a J``, then ``a <- y* J``) and ``v <- v J``;
    the one-sided route sets ``Y <- Y J``, with ``J`` built from ``G``,
    recomputed each round.  A slice still unconverged after ``max_sweeps``
    (``_MAX_SWEEPS``) sweeps raises SolverFailure, which names it.  The
    eigenpairs are sorted once, here: ``cluster_eigenpairs`` copies rows
    that come in sorted rather than sorting them again.

    The one-sided route keeps every eigenvalue of a graded positive
    definite ``D A D`` to high relative accuracy, as two-sided Jacobi does
    (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992): ``L``
    carries the grading in its rows, and a unitary applied from the right
    keeps each rounding error small relative to its own row.  ``W`` is
    unitary only to rounding, though, and ``Y Y* = L W W* L*`` has the
    eigenvalues of ``L L*`` each times a factor within ``||W* W - I||`` of
    1 (Ostrowski's theorem), which adds a relative error of a few
    ``d eps`` to every eigenvalue: graded inputs read about 1e-15 relative,
    against a few 1e-16 on the two-sided route.
    """
    # C order: the rotations multiply float views, which need contiguous rows
    a = np.array(mat, dtype=np.complex128, order="C")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    e = _prescale_exponents(a)
    if e is not None:
        a = _ldexp(a, -e[..., None, None])
    shape, d = a.shape, a.shape[-1]
    a = a.reshape(-1, d, d)
    n = len(a)
    # each slice's route; a route that takes the whole stack gets it as it
    # is, the others their slices, and a stuck slice is named by its index
    diagonal = ~a.reshape(n, d * d).take(_round_robin_plan(d)[1], axis=-1).any(axis=-1)
    chol = _cholesky_or_nan(a)
    factored = np.isfinite(chol).all(axis=(-2, -1)) & ~diagonal
    w = v = None
    stuck = []
    for kernel, x, take in ((_one_sided, chol, factored), (_two_sided, a, ~factored)):
        if take.all():
            w, v, stuck = kernel(x, max_sweeps)
            break
        if take.any():
            rows = np.flatnonzero(take)
            if w is None:
                w, v = np.empty((n, d)), np.empty_like(a)
            w[rows], v[rows], bad = kernel(x[rows], max_sweeps)
            stuck += [(rows[k], detail) for k, detail in bad]
    w, v = _finish(shape, w, v, stuck, max_sweeps)
    if e is None:
        return w, v
    with np.errstate(over="ignore"):
        return np.ldexp(w, e[..., None]), v


def _finish(shape, w, v, stuck, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs ``(w, v)`` of an ``(n, d, d)`` solve, sorted and shaped
    as the input ``shape``; raises SolverFailure naming the first slice of
    ``stuck``, its unconverged ``(slice, detail)`` pairs, if any."""
    if stuck:
        k, detail = min(stuck, key=lambda s: s[0])
        where = f" on slice {k} ({len(stuck)} of {len(w)} unconverged)" if len(shape) == 3 else ""
        raise SolverFailure(
            f"Jacobi eigensolver did not converge in {max_sweeps} sweeps{where} ({detail})"
        )
    return _sorted(w.reshape(shape[:-1]), v.reshape(shape))


def _cholesky_or_nan(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor ``L``, ``L L* = H``, of each slice ``H`` of
    a complex ``(n, d, d)`` stack, read from its lower triangle; a slice that
    does not factor comes back as NaN.

    ``np.linalg.cholesky`` raises for the whole stack when one slice fails.
    Its gufunc ``numpy.linalg._umath_linalg.cholesky_lo``, which is private
    numpy API, fills that slice with NaN instead while invalid values are
    ignored, so a mixed stack factors in one call.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.cholesky_lo(a, signature="D->D")


def _round_unitary(entries: np.ndarray, rot: np.ndarray, eyes: np.ndarray):
    """The real form of one round's unitary ``J``, from the round's entries
    ``[a_pp..., a_qq..., a_pq..., a_qp...]`` of a Hermitian (or Gram) matrix
    ``A`` in ``_stacked_plan``'s layout, with ``rot`` the round's real
    indices; also ``t |a_pq|`` per lane, so that ``J* A J`` has ``(p, q)``
    entries zero and diagonal entries ``a_pp - t |a_pq|`` and
    ``a_qq + t |a_pq|``."""
    m = len(entries) // 4
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
    k = np.copysign(2.0, diff) / np.maximum(np.abs(diff) + np.hypot(diff, 2.0 * r), _TINY)
    t = k * r
    c = 1.0 / np.hypot(1.0, t)
    cu = c * k * apq
    # J has the block [[c, c t phase], [-conj(c t phase), c]] on (p, q).
    # Its real form e has z.view(float) @ e equal to (z @ J).view(float)
    # for complex rows z.  e is C-ordered, so reshape(-1) is a view, and
    # an indexed store into it is about twice as fast as put.
    e = eyes.copy()
    u = cu.view(np.float64)
    e.reshape(-1)[rot] = np.concatenate([c, c, c, c, u, u, -u, -u])
    return e, t * r


def _jacobi(a: np.ndarray, max_sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-sided route alone on a complex ``(d, d)`` or ``(n, d, d)``
    array, sorted and raising as ``jacobi_eigh`` does: the reference the
    other routes are tested against."""
    d = a.shape[-1]
    return _finish(a.shape, *_two_sided(a.reshape(-1, d, d), max_sweeps), max_sweeps)


def _sweeps(out, max_sweeps: int, measure, rotate):
    """The sweep loop of both routes on the ``(n, ...)`` state arrays ``out``
    of a stack: returns them, each slice frozen once converged, and the
    unconverged ``(slice, figure)`` pairs.  ``measure(rows, live)`` returns
    the live slices' figures, whether each converged, and their rows (one
    per array of ``out``, then any ``rotate`` reads); ``rotate(rows, eyes,
    plan)`` applies a sweep, ``eyes`` a real ``(2d, 2d)`` identity per live
    slice, allocated only for a sweep that runs."""
    n, d = len(out[0]), out[0].shape[-1]
    live = np.arange(n)
    # a stack of one runs as its 2-D slice: the same bits, less numpy overhead
    rows = [x[0] for x in out] if n == 1 else out
    for sweep in range(max_sweeps + 1):
        off, done, rows = measure(rows, live)
        converged = np.count_nonzero(done)
        if converged == n:  # the whole stack at once, as a single solve
            return [r.reshape(x.shape) for x, r in zip(out, rows)], []
        if converged:
            for x, r in zip(out, rows):
                x[live[done]] = r[done]
            if converged == len(live):
                return out, []
            keep = ~done
            live, off, rows = live[keep], off[keep], [r[keep] for r in rows]
        if sweep == max_sweeps:
            break
        eyes = np.empty((*rows[0].shape[:-2], 2 * d, 2 * d))
        eyes[...] = np.eye(2 * d)
        rows = rotate(rows, eyes, _stacked_plan(d, len(live)))
    return out, list(zip(live.tolist(), off.tolist()))


def _two_sided(a: np.ndarray, max_sweeps: int):
    """Two-sided Jacobi on a complex ``(n, d, d)`` stack it may overwrite:
    unsorted ``(w, v)`` and the unconverged ``(slice, detail)`` pairs."""
    n, d = len(a), a.shape[-1]
    _, off_idx = _round_robin_plan(d)
    thresh = _OFF * np.sqrt(_hs_squares(a))
    v = np.empty_like(a)
    v[...] = np.eye(d)

    def measure(rows, live):
        x = rows[0].reshape(*rows[0].shape[:-2], d * d).take(off_idx, axis=-1)
        off = np.sqrt(_dots(x, x).real).reshape(-1)
        return off, off <= thresh[live], rows

    def rotate(rows, eyes, plan):
        al, vl = rows
        for idx, rot in plan:
            entries = al.take(idx)
            e, tr = _round_unitary(entries, rot, eyes)
            # a <- J* a J, taken as (a J)* J, and v <- v J; al is C-ordered
            y = (al.view(np.float64) @ e).view(np.complex128)
            y = np.conjugate(y.swapaxes(-1, -2), order="C")
            al = (y.view(np.float64) @ e).view(np.complex128)
            vl = (vl.view(np.float64) @ e).view(np.complex128)
            # the rotated diagonal (Rutishauser's update) and the
            # annihilated pair, set exactly
            m = len(idx) // 4
            al.reshape(-1)[idx] = np.concatenate(
                [entries[:m].real - tr, entries[m : 2 * m].real + tr, np.zeros(2 * m)]
            )
        return al, vl

    (a, v), stuck = _sweeps((a, v), max_sweeps, measure, rotate)
    stuck = [(k, f"off-diagonal norm {x:.3e}, threshold {thresh[k]:.3e}") for k, x in stuck]
    return a.reshape(n, d * d)[:, :: d + 1].real, v, stuck


def _one_sided(l: np.ndarray, max_sweeps: int):
    """One-sided Jacobi on an ``(n, d, d)`` stack of Cholesky factors ``L``:
    unsorted ``(w, v)`` of each ``L L*`` and the unconverged ``(slice,
    detail)`` pairs."""
    n, d = len(l), l.shape[-1]
    _, off_idx = _round_robin_plan(d)
    # Y = L W with W the eigenbasis of L* L, so Y* Y is nearly diagonal;
    # np.linalg.eigh's gufunc (private, as cholesky_lo) gives its bits
    # without its wrapper, and NaN, which never converges, on a failure
    y = l @ _umath_linalg.eigh_lo(_gram(l), signature="D->dD")[1]

    def measure(rows, live):
        g = _gram(rows[0])
        gd = g.reshape(*g.shape[:-2], d * d)[..., :: d + 1].real
        s = np.sqrt(gd)
        rel = np.abs(g) / s[..., :, None] / s[..., None, :]
        off = rel.reshape(-1, d * d).take(off_idx, axis=-1).max(axis=-1, initial=0.0)
        # w is G's diagonal once converged; G itself serves the next round
        return off, off <= _OFF, (rows[0], gd, g)

    def rotate(rows, eyes, plan):
        yl, gd, g = rows
        for r, (idx, rot) in enumerate(plan):
            if r:
                g = _gram(yl)
            e, _ = _round_unitary(g.take(idx), rot, eyes)
            yl = (yl.view(np.float64) @ e).view(np.complex128)
        return yl, gd, g

    (y, w), stuck = _sweeps((y, np.empty((n, d))), max_sweeps, measure, rotate)
    detail = "largest relative Gram entry {:.3e}, threshold {:.1e}"
    stuck = [(k, detail.format(x, _OFF)) for k, x in stuck]
    if stuck:  # jacobi_eigh raises without reading w or v
        return w, y, stuck
    return w, y / np.sqrt(w)[:, None, :], stuck


def _kept_per_order(build):
    """The keep rule of a spectrum's per-order method ``build(self, alpha,
    *args)``: on one spectrum at a float order the array is read-only and
    kept in ``__dict__["_kept"]`` under ``(build's name, alpha, *args)``
    for the latest 16 keys, oldest evicted first; on a stack or an order
    axis it is built on every call."""
    name = build.__name__

    def kept(self, alpha, *args):
        if self.w.ndim != 1 or not isinstance(alpha, float):
            return build(self, alpha, *args)
        keep = self.__dict__.get("_kept")
        if keep is None:
            keep = self.__dict__["_kept"] = {}
        key = (name, alpha, *args)
        array = keep.get(key)
        if array is None:
            array = build(self, alpha, *args)
            array.flags.writeable = False
            if len(keep) >= _CACHED_ORDERS:
                del keep[next(iter(keep))]
            keep[key] = array
        return array

    return wraps(build)(kept)


def _gram(y: np.ndarray) -> np.ndarray:
    """``Y* Y`` per slice, one BLAS product each."""
    return y.conj().swapaxes(-1, -2) @ y


def _sorted(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New arrays holding the eigenpairs ``(w, v)``, one spectrum or a
    stack, in decreasing order of ``w`` (stable), row by row."""
    order = np.argsort(-w, axis=-1, kind="stable")
    if w.ndim == 1:
        return w[order], v[:, order]
    rows = np.arange(len(w))[:, None]
    return w[rows, order], v[rows[:, :, None], np.arange(w.shape[-1])[:, None], order[:, None, :]]


def _spectral_fn(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``V diag(f) V*``, per slice of a stack."""
    return (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _pow(base: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``base ** p``, ``p`` of the result's shape, by numpy's vector pow
    alone.  A single pair would be one loop step, whose exponent numpy reads
    at stride 0 and then serves by its scalar square, sqrt or reciprocal
    (differing in the last bit); the pair is raised as two copies instead,
    so a 1x1 spectrum's float call equals its stack and order-axis calls."""
    if p.size > 1:
        return base**p
    return (np.repeat(base, 2) ** np.repeat(p, 2))[:1].reshape(p.shape)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """``M = V diag(w) V*``: read-only non-increasing eigenvalues ``w`` and
    a unitary ``v`` with the eigenvectors in its columns.  Equal entries of
    ``w`` span one eigenspace; ``eigenvalues``, ``multiplicities`` and
    ``projections`` are derived views over the distinct eigenvalues.

    A stack holds ``(n, d)`` eigenvalues and ``(n, d, d)`` eigenvectors, one
    spectrum per slice; ``lmax`` and ``lmin`` are then ``(n,)`` arrays, and
    ``reassemble``, ``power``, ``support``, ``shift``, ``scale``,
    ``is_positive_definite`` and ``validate`` act slice by slice.

    Being immutable, a spectrum caches what is derived from it alone in
    its ``__dict__``: ``_real_v``, and on one spectrum its per-order arrays
    (the divergence kernel's ``_gram_weights`` and the rank-one query's
    ``_query_powers``) for the latest 16 keys, the oldest evicted first
    (``_kept_per_order``).  ``shift`` and ``scale`` build new spectra,
    whose caches start empty.
    """

    w: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.complex128)
        if w.ndim not in (1, 2) or w.shape[-1] == 0 or v.shape != w.shape + w.shape[-1:]:
            raise ValueError(f"eigenvalues {w.shape} do not fit eigenvectors {v.shape}")
        w.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)
        # plain floats for one spectrum: is_positive_definite runs on every
        # rank-one query
        lmax, lmin = w[..., 0], w[..., -1]
        object.__setattr__(self, "lmax", float(lmax) if w.ndim == 1 else lmax)
        object.__setattr__(self, "lmin", float(lmin) if w.ndim == 1 else lmin)

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

    @cached_property
    def _real_v(self) -> np.ndarray:
        """``V`` as a read-only real ``(2d, 2d)`` matrix ``E`` per slice, with
        ``z.view(float) @ E == (z @ V).view(float)`` for complex rows ``z``:
        rows ``k`` of ``V`` and ``iV``, interleaved, as floats.  Built once."""
        d = self.v.shape[-1]
        e = np.multiply(self.v[..., :, None, :], [[1.0], [1.0j]], order="C").view(np.float64)
        e = e.reshape(*self.v.shape[:-2], 2 * d, 2 * d)
        e.flags.writeable = False
        return e

    @_kept_per_order
    def _gram_weights(self, alpha, support_rel: float, pseudo: bool) -> np.ndarray:
        """The divergence kernel's weights ``w_j^(-alpha) w_i^(alpha-1)`` at
        ``[..., j, i]`` under ``_powers``' support rule: ``(d, d)`` per slice,
        and per order of an order axis as ``power`` takes it, each bit for
        bit the outer product of the two rows of ``_powers(alpha - 1,
        -alpha)``.  A miss raises ``_powers``' SingularOperator where it
        would."""
        f = self._powers(alpha - 1.0, -alpha, pseudo=pseudo, support_rel=support_rel)
        return f[1, ..., :, None] * f[0, ..., None, :]

    @_kept_per_order
    def _query_powers(self, alpha) -> np.ndarray:
        """The rank-one query's stack ``[D^-alpha; D^(alpha-1)]``, the two
        powers (cutoff 0) along the rows: ``(2d, d)`` per slice, and per
        order of an order axis as ``power`` takes it."""
        return np.concatenate([self.power(-alpha, support_rel=0.0),
                               self.power(alpha - 1.0, support_rel=0.0)], axis=-2)

    def reassemble(self) -> np.ndarray:
        """The Hermitian part of ``V diag(w) V*``."""
        return hermitian_part(_spectral_fn(self.v, self.w))

    def apply(self, fn) -> np.ndarray:
        """Standard operator function ``V diag(f(w)) V*``."""
        return _spectral_fn(self.v, np.array([fn(lam) for lam in self.w.tolist()]))

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
        ``pseudo=True``, otherwise SingularOperator is raised.  ``p`` may
        also be an array of K exponents on a leading axis, ``(K, 1)`` for
        one spectrum or ``(K, 1, 1)`` for a stack, giving K powers of each
        slice, each equal to its float call bit for bit.
        """
        return _spectral_fn(self.v, self._powers(p, pseudo=pseudo, support_rel=support_rel)[0])

    def _powers(self, *ps, pseudo: bool, support_rel: float) -> np.ndarray:
        """``power``'s eigenvalues ``f(w)`` per exponent of ``ps``, on a new first
        axis.  The exponents (all floats, or all arrays of K orders on a
        leading axis) fill a ``(len(ps), [K,] *w.shape)`` array by one
        transposed assignment, so ``**`` reads them contiguous (a stride-0
        exponent may round differently) and every (order, slice) matches
        its float call bit for bit."""
        cutoff, full = self._cutoff(support_rel)
        ps = np.array(ps)
        p = np.empty((len(ps), *ps.shape[1:-self.w.ndim], *self.w.shape))
        p.T[...] = ps.T
        if full:
            return _pow(self.w, p)
        if not pseudo and p.min() < 0.0:
            raise SingularOperator(
                "negative power of a singular operator; pass pseudo=True "
                "for the support-restricted pseudo-power"
            )
        # kernel eigenvalues are raised as 1, then zeroed, so ``**`` reads w
        # and p whole: a lone selected pair of differently shaped operands
        # would read the exponent at stride 0 (see ``_pow``)
        above = self.w > cutoff
        return np.where(above, _pow(np.where(above, self.w, 1.0), p), 0.0)

    def support(self, support_rel: float = DEFAULT_TOL.support) -> np.ndarray:
        """Orthogonal projection onto the span of the above-cutoff eigenspaces
        (zero for the zero operator)."""
        cutoff, _ = self._cutoff(support_rel)
        return _spectral_fn(self.v, self.w > cutoff)

    def _cutoff(self, support_rel: float):
        """The support cutoff ``support_rel * max(lmax, 0)``, and whether
        every eigenvalue lies above it.  The cutoff is a float, or an
        ``(n, 1)`` column for a stack; plain floats keep the per-query path
        cheap."""
        if self.w.ndim == 1:
            cutoff = support_rel * max(self.lmax, 0.0)
            return cutoff, self.lmin > cutoff
        cutoff = support_rel * np.maximum(self.lmax, 0.0)[:, None]
        return cutoff, bool((self.w[:, -1:] > cutoff).all())

    def is_positive_definite(self, pd_rel: float = DEFAULT_TOL.pd):
        """``lmin > pd_rel * lmax > 0``: a bool, or one per slice."""
        return (self.lmax > 0.0) & (self.lmin > pd_rel * self.lmax)

    def validate(self, source: np.ndarray | None = None, rtol: float = 1e-10):
        """Check the invariants, and the reassembly of ``source`` when given;
        raises AssertionError.  ``v* v = I`` within 1e-10 makes the
        eigenprojections Hermitian, idempotent, orthogonal and complete.
        A stack is checked slice by slice."""
        if self.w.ndim == 2:
            for k in range(len(self.w)):
                one = SpectralDecomposition(self.w[k], self.v[k])
                one.validate(None if source is None else source[k], rtol)
            return
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
    eigenspace whose eigenvalue is their mean.  An eigenvalue that
    overflowed to +-inf stays apart from every finite one: ``lmax`` is
    then the largest finite eigenvalue (0 if there is none).  Every
    spectrum built from eigenpairs, computed or known by construction,
    goes through here.  On an ``(n, d)`` / ``(n, d, d)`` stack each row
    merges on its own.  Both arrays come back new; sorted input (as
    ``jacobi_eigh``'s) is copied, not sorted again.
    """
    vals, v = np.asarray(w, dtype=np.float64), np.asarray(v)
    if (vals[..., :-1] >= vals[..., 1:]).all():
        # the stable sort would be the identity: v in its indexing's layout
        v = np.array(v, order="F" if vals.ndim == 1 else "C")
    else:
        vals, v = _sorted(vals, v)
    # a sorted row holds its largest magnitude at an end
    top = max(vals[0], -vals[-1]) if vals.ndim == 1 else np.abs(vals).max(initial=0.0)
    huge = top > 2.0**_SAFE_EXP
    if not huge:
        delta = tol.cluster * np.maximum(1.0, np.abs(vals[..., :1]))
        gaps = vals[..., :-1] - vals[..., 1:]
    else:
        # a gap or a run's sum may overflow where the mean does not: a row
        # beyond the safe range merges scaled by an exact power of two.  An
        # infinite eigenvalue sets neither that power nor the window, which
        # would be inf and merge the whole row into one infinite cluster.
        finite = np.isfinite(vals)
        lead = np.max(vals, axis=-1, keepdims=True, where=finite, initial=-np.inf)
        delta = tol.cluster * np.maximum(1.0, np.abs(np.where(lead > -np.inf, lead, 0.0)))
        tops = np.max(np.abs(vals), axis=-1, keepdims=True, where=finite, initial=0.0)
        e = np.where(tops > 2.0**_SAFE_EXP, np.frexp(tops)[1], 0)
        vals, delta = np.ldexp(vals, -e), np.ldexp(delta, -e)
        # two equal infinities leave a nan gap, which merges them
        with np.errstate(invalid="ignore"):
            gaps = vals[..., :-1] - vals[..., 1:]
    breaks = np.empty(vals.shape, dtype=bool)
    breaks[..., 0] = True
    np.greater(gaps, delta, out=breaks[..., 1:])
    # runs numbered across rows; bincount sums each from 0.0 up, so a lone
    # -0.0 becomes 0.0, as it does by + 0.0 when no run merges
    if breaks.all():
        means = vals + 0.0
    else:
        ids = breaks.cumsum() - 1
        means = (np.bincount(ids, vals.ravel()) / np.bincount(ids))[ids].reshape(vals.shape)
    if huge:
        with np.errstate(over="ignore"):
            means = np.ldexp(means, e)
    return SpectralDecomposition(means, v)


def spectral_decomposition(
    mat: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> SpectralDecomposition:
    """Eigendecompose a Hermitian ndarray, or a stack of them, and cluster
    near-ties.

    Eigenvalues closer than ``tol.cluster * max(1, lmax)`` chain-merge
    into one eigenspace (see ``cluster_eigenpairs``).
    """
    return cluster_eigenpairs(*jacobi_eigh(mat), tol)
