"""Spectral peeling: a spectrum read off one fit of rank-one queries.

For a unit vector v the shifted rank-one query against a hidden positive
definite D is

    q(v) = <v, A v> <v, B v>,      A = D^-alpha,  B = D^(alpha-1),

a product of two Hermitian forms.  <v, X v> = Phi(v) . x is linear in the
d² real parameters x of X (its diagonal, then the real and imaginary
parts of its upper triangle), with features Phi(v) = (|v_i|², 2 Re and
-2 Im of conj(v_i) v_k, i < k).  So q has 2d² real parameters, less one
scale: (cA, B/c) gives the same q.  The peel queries 2d² + d seeded
Haar-random unit probes, fixed per d and built once for the latest d,
and fits (Phi a) * (Phi b) = q by least squares (Golub and Pereyra, SIAM
J. Numer. Anal. 10, 1973; Björck, "Numerical Methods for Least Squares
Problems", 1996):

- Exact orders.  At alpha = 0 (A = I) and alpha = 1 (B = I) one factor
  is <v, v> = 1 and q(v) = <v, D^-1 v> is one form, linear in its
  parameters: the fit is the design's pseudo-inverse times q, with the
  other form I.  The route is taken at exactly 0 and 1 only: next to them
  q is still a product, and a linear fit would lose digits (4e-10 to
  7e-9 on a graded spectrum at alpha = 1e-9).
- Start.  By Cauchy-Schwarz sqrt(q(v)) >= <v, S v>, S = D^-1/2, with
  equality at D's eigenvectors and, at alpha = 1/2, everywhere.  A linear
  fit of sqrt(q) gives S, and the fit starts at A0 = |S|^(2 alpha),
  B0 = |S|^(2 - 2 alpha); a start with A0 = B0 would never leave the
  swap-symmetric set.  At alpha = 1/2 the start is exact and is the fit.
- Steps.  At every other order, undamped Gauss-Newton, J = [diag(Phi b)
  Phi, diag(Phi a) Phi].  The scale direction (a, -b) is in J's null
  space, so a gauge row (a, -b) with right-hand side 0 is appended; the
  step comes from the triangular factor of the QR of [J | -r].  A step is
  kept if it lowers the sum of squared residuals, and the fit goes on
  while steps more than halve it and the sum lies above the rounding
  floor n (eps max q)^2 of the n probes: the convergence is quadratic, so
  a step that does not halve it is at the floor of rounding or noise, and
  a sum at the floor (an exact fit among them) needs no step to confirm
  it.

A/tr(A) + B/tr(B) = h(D) with h(l) = l^-alpha / tr(A) + l^(alpha-1) /
tr(B) strictly decreasing for every alpha in [0, 1], so its eigensolve
gives D's eigenspaces in reverse order.  The oracle is then queried once
at each eigenvector u_i: q(u_i) = 1/lambda_i, and an eigenspace's
eigenvalue is the mean of 1/q(u_i) over its vectors.  q is a product of
two Rayleigh quotients, both stationary at an eigenvector of D, so an
error in u_i enters only at second order (Parlett, "The Symmetric
Eigenvalue Problem", 1998); the fitted forms' own eigenvalues
1/(a_i b_i) are first order in the fit's error, and lose digits at the
endpoint orders (4e-10 relative on a graded spectrum, against the
readout's 4e-11).  Under noise the fit may split an eigenspace and read
its parts out of order; since h is strictly decreasing, neighbouring
eigenspaces whose readouts do not decrease are merged.

A query value outside (0, inf) raises ``ReconstructionError`` (a fit
query before the fit), and so does a fitted probe off by more than
``1e-6 * max|q| + 10 * oracle.noise_sigma``, a misfit.  A run costs
exactly 2d² + 2d queries, 84 at d = 6.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .divergence import Alpha
from .errors import ReconstructionError
from .linalg import SpectralDecomposition, spectral_decomposition
from .operators import RankOneProjection
from .oracle import DivergenceOracle

__all__ = ["spectral_peel"]

#: seed of the probe designs; part of the method, not a setting
_DESIGN_SEED = 20170

_EPS = np.finfo(np.float64).eps


@lru_cache(maxsize=1)
def _design(d: int) -> tuple[tuple[RankOneProjection, ...], np.ndarray, np.ndarray,
                             tuple[np.ndarray, np.ndarray]]:
    """The 2d² + d fixed probes, their features ``phi`` (``phi[j] @
    _parameters(X) == <v_j, X v_j>``), its pseudo-inverse and the
    ``triu_indices(d, 1)`` that order the parameters, read-only."""
    rng = np.random.default_rng([_DESIGN_SEED, d])
    n = 2 * d * d + d
    probes = tuple(map(RankOneProjection, rng.standard_normal((n, d))
                       + 1j * rng.standard_normal((n, d))))
    v = np.array([p.vector for p in probes])
    i, k = upper = np.triu_indices(d, 1)
    z = v[:, i].conj() * v[:, k]
    phi = np.hstack([(v.conj() * v).real, 2.0 * z.real, -2.0 * z.imag])
    pinv = np.linalg.pinv(phi)
    phi.flags.writeable = pinv.flags.writeable = i.flags.writeable = k.flags.writeable = False
    return probes, phi, pinv, upper


def _parameters(mat: np.ndarray) -> np.ndarray:
    """The d² real parameters of a Hermitian matrix: its diagonal, then the
    real and the imaginary parts of its upper triangle."""
    i, k = _design(len(mat))[3]
    return np.concatenate([mat.diagonal().real, mat[i, k].real, mat[i, k].imag])


def _hermitian(x: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrix with parameters ``x`` (``_parameters``' inverse)."""
    i, k = _design(d)[3]
    mat = np.diag(x[:d].astype(np.complex128))
    mat[i, k] = x[d:d + len(i)] + 1j * x[d + len(i):]
    mat[k, i] = mat[i, k].conj()
    return mat


def _positive(values: list[float], what: str) -> np.ndarray:
    values = np.array(values)
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ReconstructionError(f"a {what} query value lies outside (0, inf)")
    return values


def _fit(q: np.ndarray, d: int, alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian A and B with ``(phi @ a) * (phi @ b) ~ q`` for their
    parameters a and b, and the residual per probe.  At alpha exactly 0 or
    1 one form is I and the other the linear fit ``pinv @ q``; at 1/2 the
    start is the fit; at any other order Gauss-Newton runs from the start
    until a step no longer halves the sum of squared residuals or the sum
    reaches the rounding floor ``n (eps max q)^2`` of n probes.  The
    augmented matrix ``[J | -r; gauge | 0]`` is allocated once and refilled
    in place per step, and each step's forms ``phi @ a``, ``phi @ b`` are
    the ones its residual was taken from."""
    _, phi, pinv, _ = _design(d)
    n, m = phi.shape
    if alpha == 0.0 or alpha == 1.0:
        x = pinv @ q
        form, eye = _hermitian(x, d), np.eye(d, dtype=np.complex128)
        a, b = (eye, form) if alpha == 0.0 else (form, eye)
        return a, b, phi @ x - q
    w, u = np.linalg.eigh(_hermitian(pinv @ np.sqrt(q), d))
    x = np.concatenate([_parameters((u * np.abs(w) ** p) @ u.conj().T)
                        for p in (2.0 * alpha, 2.0 - 2.0 * alpha)])
    fa, fb = phi @ x[:m], phi @ x[m:]
    r = fa * fb - q
    if alpha == 0.5:
        # the start is exact, and J singular (A = B): no step would be kept
        return _hermitian(x[:m], d), _hermitian(x[m:], d), r
    cost = r @ r
    floor = n * (_EPS * q.max()) ** 2
    # [J | -r] over the gauge row [a, -b | 0], J = [diag(phi b) phi, diag(phi a) phi]
    aug = np.empty((n + 1, 2 * m + 1))
    aug[n, -1] = 0.0
    while cost > floor:
        np.multiply(fb[:, None], phi, out=aug[:n, :m])
        np.multiply(fa[:, None], phi, out=aug[:n, m:-1])
        np.negative(r, out=aug[:n, -1])
        aug[n, :m] = x[:m]
        np.negative(x[m:], out=aug[n, m:-1])
        tri = np.linalg.qr(aug, mode="r")
        x_new = x + np.linalg.solve(tri[:-1, :-1], tri[:-1, -1])
        fa_new, fb_new = phi @ x_new[:m], phi @ x_new[m:]
        r_new = fa_new * fb_new - q
        cost_new = r_new @ r_new
        if cost_new < cost:
            x, r, fa, fb = x_new, r_new, fa_new, fb_new
        if not cost_new < cost / 2:
            break
        cost = cost_new
    return _hermitian(x[:m], d), _hermitian(x[m:], d), r


def spectral_peel(
    oracle: DivergenceOracle,
    d: int,
    alpha: float,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralDecomposition:
    """Recover the spectral decomposition of the operator behind the oracle.

    The oracle must answer query(R) with the shifted rank-one query
    against a hidden positive definite operator.  Uses exactly
    ``2d² + 2d`` queries (84 at d = 6), each a ``RankOneProjection``
    passed to ``oracle.query``: the 2d² + d fixed probes of the fit, then
    one at each eigenvector of ``A/tr(A) + B/tr(B)`` for the fitted forms,
    in order.  Returns those eigenvectors and each eigenspace's eigenvalue
    (the mean of ``1/q(u_i)`` over its vectors, after merging neighbours
    whose readouts do not decrease), strictly decreasing.  Raises
    ``ReconstructionError`` on a query value outside (0, inf) and on a
    fitted probe off by more than ``1e-6 * max|q| + 10 * oracle.noise_sigma``
    (noise that the query function adds itself must be declared there).
    The fit takes no iteration at alpha exactly 0, 1/2 or 1, where it is
    linear in the queries or in their square roots, and Gauss-Newton
    steps down to the rounding floor at every other order.
    """
    alpha = float(Alpha(alpha))
    if d < 1:
        raise ValueError("dimension must be at least 1")
    q = _positive([oracle.query(r) for r in _design(d)[0]], "fit")
    form_a, form_b, r = _fit(q, d, alpha)
    worst = float(np.max(np.abs(r)))
    if not worst <= 1e-6 * q.max() + 10.0 * oracle.noise_sigma:
        raise ReconstructionError(f"the queries are not a product of two Hermitian forms: "
                                  f"a fitted probe is off by {worst:.2e}")
    # h is decreasing: D's largest eigenvalue sits at h's smallest
    mix = form_a / np.trace(form_a).real + form_b / np.trace(form_b).real
    spec = spectral_decomposition(mix, tol)
    vecs = spec.v[:, ::-1]
    sizes = spec.multiplicities[::-1]
    lams = 1.0 / _positive([oracle.query(RankOneProjection(u)) for u in vecs.T], "readout")
    # h is strictly decreasing, so an eigenspace that reads no smaller than
    # the one before it is the same eigenvalue split by noise: merge the two
    # and average over both (pool adjacent violators)
    blocks: list[tuple[int, int]] = []
    bounds = np.cumsum((0,) + sizes).tolist()
    for a, b in zip(bounds, bounds[1:]):
        while blocks and np.mean(lams[slice(*blocks[-1])]) <= np.mean(lams[a:b]):
            a = blocks.pop()[0]
        blocks.append((a, b))
    means = [float(np.mean(lams[a:b])) for a, b in blocks]
    return SpectralDecomposition(np.repeat(means, [b - a for a, b in blocks]), vecs)
