"""Spectral peeling: a spectrum read off the quartic form of rank-one queries.

For a unit vector v the shifted rank-one query against a hidden positive
definite D is

    q(v) = <v, A v> <v, B v>,      A = D^-alpha,  B = D^(alpha-1),

which equals (v⊗v)* S (v⊗v) for the Hermitian form S = Π (A⊗B) Π on the
symmetric subspace Sym²(C^d); Π = (1 + F)/2 with F the swap.  The
products v⊗v span Sym² (Harrow, "The church of the symmetric subspace",
arXiv:1308.6595), so q is linear in the m² real parameters of S,
m = d(d+1)/2, and a linear fit on query values fixes S.

In the monomials v_i v_k (i <= k), S is an m x m Hermitian matrix C whose
entry (ik, jl) touches the coordinates {i, k, j, l}.  Only the entries
that touch at most three coordinates are fitted; the partial trace below
reads no other.  The fit runs on probes supported on s = 1, 2, 3
coordinates, smallest supports first.  A probe on an s-subset sees only
the entries inside it; those of smaller support are already fitted and
their prediction is subtracted, which leaves the entries whose support is
exactly the subset (1, 7 and 12 real parameters).  One fixed, seeded
local design of twice that many unit probes serves every subset of a
size, so the entries of all s-subsets come from one precomputed
pseudo-inverse in one matmul, and no system larger than 24 x 12 is
solved.  The probes depend only on d, so the ``RankOneProjection``s of
the latest d are built once and reused, each query still one
``oracle.query`` call; only that one design is kept (about 0.22 MB at
d = 6 and 6.9 MB at d = 16 under tracemalloc).

The partial trace

    tr_2 S = (tr(B) A + tr(A) B + 2 A B) / 4 = g(D),
    g(l) = (tr(B) l^-alpha + tr(A) l^(alpha-1) + 2/l) / 4,

has entries (tr_2 S)_ij = sum_k S_(ik),(jk) of support {i, j, k}, and g
is strictly decreasing in l for every alpha in [0, 1]: both power terms
are non-increasing and 2/l is strictly decreasing.  So tr_2 S has exactly
D's eigenspaces, in reverse order and with the same multiplicities, and
its eigensolve gives D's eigenbasis.  The oracle is then queried once at
each eigenvector u_i: q(u_i) = 1/lambda_i, and an eigenspace's eigenvalue
is the mean of 1/q(u_i) over its vectors.  q is a product of two Rayleigh
quotients, both stationary at an eigenvector of D, so an error in u_i
enters the eigenvalue only at second order (Parlett, "The Symmetric
Eigenvalue Problem", 1998).  Under a noisy oracle tr_2 S may split an
eigenspace, and each part's readout carries its own noise, so the parts
may come back out of order; since g is strictly decreasing, neighbouring
eigenspaces whose readouts do not decrease are merged, their eigenvalue
the mean over the merged vectors.  A run costs exactly
2d + 14 C(d,2) + 24 C(d,3) + d queries, 708 at d = 6.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .divergence import Alpha
from .errors import ReconstructionError
from .linalg import SpectralDecomposition, spectral_decomposition
from .operators import RankOneProjection
from .oracle import DivergenceOracle

__all__ = ["spectral_peel"]

#: seed of the local probe designs; part of the method, not a setting
_DESIGN_SEED = 20170
#: probes per exact-support parameter in each local design
_OVERSAMPLE = 2


def _pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs i <= k of the monomials v_i v_k, in row-major order."""
    return [(i, k) for i in range(n) for k in range(i, n)]


def _monomials(x: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The monomials x_i x_k of each row of ``x``, one column per pair."""
    i, k = np.array(pairs).T
    return x[..., i] * x[..., k]


@lru_cache(maxsize=None)
def _local_design(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The fixed probe design of one s-subset and its readout.

    Returns ``(x, mono, entries, readout)``: unit probe vectors ``x`` on
    the subset's local coordinates, their monomials, the local monomial
    pairs ``(p, q)``, ``p <= q``, of the entries whose support is the
    whole subset, and the matrix that maps the residual query values to
    those entries (the pseudo-inverse of the design, combined into
    complex entries).
    """
    pairs = _pairs(s)
    whole = set(range(s))
    entries, parts = [], []
    for p in range(len(pairs)):
        for q in range(p, len(pairs)):
            if set(pairs[p]) | set(pairs[q]) == whole:
                entries.append((p, q))
                parts.append((len(entries) - 1, 1.0))
                if p != q:
                    parts.append((len(entries) - 1, 1j))
    rng = np.random.default_rng([_DESIGN_SEED, s])
    x = rng.standard_normal((_OVERSAMPLE * len(parts), s)) \
        + 1j * rng.standard_normal((_OVERSAMPLE * len(parts), s))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    mono = _monomials(x, pairs)
    # a real parameter c (diagonal) or the real or imaginary part of an
    # off-diagonal entry adds c |m_p|^2, or 2 Re(c conj(m_p) m_q)
    features = np.empty((len(x), len(parts)))
    embed = np.zeros((len(parts), len(entries)), dtype=np.complex128)
    for col, (e, unit) in enumerate(parts):
        p, q = entries[e]
        z = mono[:, p].conj() * mono[:, q]
        features[:, col] = z.real if p == q else 2.0 * (unit * z).real
        embed[col, e] = unit
    readout = np.linalg.pinv(features).T @ embed
    out = (x, mono, np.array(entries).reshape(-1, 2), readout)
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _plan(d: int) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """Monomial index of each coordinate pair, and per subset size the
    subsets and the global indices of their local monomials."""
    index = np.zeros((d, d), dtype=np.intp)
    for n, (i, k) in enumerate(_pairs(d)):
        index[i, k] = index[k, i] = n
    sizes = []
    for s in range(1, min(d, 3) + 1):
        subsets = np.array(list(combinations(range(d), s)))
        i, k = np.array(_pairs(s)).T
        sizes.append((subsets, index[subsets[:, i], subsets[:, k]]))
    for arr in (index, *(a for size in sizes for a in size)):
        arr.flags.writeable = False
    return index, tuple(sizes)


@lru_cache(maxsize=1)
def _probes(d: int) -> tuple[tuple[RankOneProjection, ...], ...]:
    """Per subset size of ``_plan(d)``, the rank-one probes of every subset,
    subset by subset: probe j of subset t carries x[j] of the local design
    on the subset's coordinates."""
    _, sizes = _plan(d)
    out = []
    for subsets, _ in sizes:
        x = _local_design(subsets.shape[1])[0]
        n = len(subsets)
        probes = np.zeros((n, len(x), d), dtype=np.complex128)
        t, j = np.arange(n)[:, None, None], np.arange(len(x))[:, None]
        probes[t, j, subsets[:, None, :]] = x
        out.append(tuple(RankOneProjection(v) for v in probes.reshape(-1, d)))
    return tuple(out)


def _fit_form(oracle: DivergenceOracle, d: int) -> np.ndarray:
    """The m x m Hermitian coefficient matrix of q in the monomials, fitted
    on the entries of support at most 3; those of support 4 stay zero."""
    _, sizes = _plan(d)
    m = d * (d + 1) // 2
    form = np.zeros((m, m), dtype=np.complex128)
    for (subsets, gidx), probes in zip(sizes, _probes(d)):
        _, mono, entries, readout = _local_design(subsets.shape[1])
        values = np.array([oracle.query(r) for r in probes]).reshape(len(subsets), -1)
        # entries of smaller support, fitted already; the subset's own are zero
        local = form[gidx[:, :, None], gidx[:, None, :]]
        predicted = np.einsum("jp,tpq,jq->tj", mono.conj(), local, mono).real
        coef = (values - predicted) @ readout
        rows, cols = gidx[:, entries[:, 0]], gidx[:, entries[:, 1]]
        form[cols, rows] = coef.conj()
        form[rows, cols] = coef
    return form


def _partial_trace(form: np.ndarray, d: int) -> np.ndarray:
    """``tr_2 S`` from the fitted coefficient matrix: ``(tr_2 S)_ij =
    sum_k S_(ik),(jk)``, which reads only entries of support at most 3."""
    index, _ = _plan(d)
    # a monomial pair of distinct coordinates stands for two orderings of
    # the tensor index
    weight = np.where(np.eye(d, dtype=bool), 1.0, 0.5)
    terms = form[index[:, None, :], index[None, :, :]] * weight[:, None, :] * weight[None, :, :]
    return terms.sum(axis=2)


def spectral_peel(
    oracle: DivergenceOracle,
    d: int,
    alpha: float,
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralDecomposition:
    """Recover the spectral decomposition of the operator behind the oracle.

    The oracle must answer query(R) with the shifted rank-one query
    against a hidden positive definite operator.  Uses exactly
    ``2d + 14 C(d,2) + 24 C(d,3) + d`` queries (708 at d = 6), each a
    ``RankOneProjection`` passed to ``oracle.query``: the fixed probes of
    supports 1-3, built once for the latest d and reused, then one probe
    at each eigenvector of the fitted partial trace, in order.  Returns
    those eigenvectors, each eigenspace's eigenvalue (the mean of
    ``1/q(u_i)`` over its vectors) repeated over its vectors; the
    distinct eigenvalues are strictly decreasing.  Neighbouring
    eigenspaces whose readouts do not decrease are one eigenvalue split
    by noise, and are merged into one.  Raises ``ReconstructionError`` on
    a non-finite fit and on a readout value outside (0, inf).
    """
    # neither the fit nor the readout needs the order; it is still checked
    Alpha(alpha)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    form = _fit_form(oracle, d)
    if not np.isfinite(form).all():
        raise ReconstructionError("the fitted quartic form is not finite")
    # g is decreasing: D's largest eigenvalue sits at g's smallest
    spec = spectral_decomposition(_partial_trace(form, d), tol)
    vecs = spec.v[:, ::-1]
    sizes = spec.multiplicities[::-1]
    values = [oracle.query(RankOneProjection(u)) for u in vecs.T]
    for value in values:
        if not 0.0 < value < np.inf:
            raise ReconstructionError(
                f"readout query value {value!r} does not yield an eigenvalue in (0, inf)"
            )
    lams = 1.0 / np.array(values)
    # g is strictly decreasing, so an eigenspace that reads no smaller than
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
