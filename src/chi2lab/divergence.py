"""The chi-squared divergence of order alpha on positive operators.

For positive definite ``B = V diag(w) V*`` the divergence of A against B,
tr B^(-alpha) (A - B) B^(alpha - 1) (A - B), is evaluated in B's eigenbasis
as ``sum_ij w_i^(alpha-1) w_j^(-alpha) |X_ij|^2`` with ``X = V* (A - B) V``.
Every term is a product of nonnegative floats, so the result is nonnegative
bit for bit, and 0.0 when A equals B.  For singular B the value is the limit
of the divergence against B + eps*I: finite (kernel eigenvalues weigh 0)
exactly when supp A lies inside supp B, infinite otherwise.  Infinity is a
tagged value, never a floating-point inf; a value past the float maximum
raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import NotPositiveDefinite
from .linalg import _SAFE_EXP, SpectralDecomposition, _dots, _ldexp
from .operators import (PdOperator, PsdOperator, RankOneProjection, _require_same_dim,
                        support_contained)

__all__ = [
    "Alpha",
    "DivergenceValue",
    "chi2",
    "quadratic_relative_entropy",
    "chi2_extended",
    "chi2_limit_probe",
    "chi2_shifted",
]

#: finite divergence payloads may round as low as -EPS_DIV before we reject
EPS_DIV = 1e-10

#: orders within this distance of 0 or 1 count as endpoint orders
_ENDPOINT_EPS = 1e-9


class Alpha(float):
    """Order parameter of the divergence family, a real in [0, 1]."""

    def __new__(cls, value):
        v = float(value)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {v}")
        return super().__new__(cls, v)

    @property
    def is_endpoint(self) -> bool:
        """Whether the order sits at 0 or 1 (within 1e-9).

        There the power functions t^-a (1-t)^(a-1) and (1-t)^-a t^(a-1)
        collapse onto 1/(1-t) and 1/t.
        """
        return self <= _ENDPOINT_EPS or self >= 1.0 - _ENDPOINT_EPS


@dataclass(frozen=True)
class DivergenceValue:
    """Extended-real divergence: a nonnegative float or the tagged infinity."""

    _amount: float | None

    @classmethod
    def finite(cls, amount: float) -> "DivergenceValue":
        amount = float(amount)
        # NaN fails the comparison, and an overflow to inf is not the tagged infinity
        if not -EPS_DIV <= amount < np.inf:
            raise ValueError(f"divergence {amount} is not a finite float above the clamping floor")
        return cls(max(amount, 0.0))

    @classmethod
    def infinite(cls) -> "DivergenceValue":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self._amount is not None

    @property
    def is_infinite(self) -> bool:
        return self._amount is None

    @property
    def value(self) -> float:
        if self._amount is None:
            raise ValueError("infinite divergence has no finite value")
        return self._amount

    def __str__(self) -> str:
        return "inf" if self._amount is None else repr(self._amount)


def _require_pd(spec: SpectralDecomposition, tol: Tolerances):
    """Raise NotPositiveDefinite unless ``lmin > pd * lmax`` (every slice of a
    stacked spectrum)."""
    ok = spec.is_positive_definite(tol.pd)
    if spec.w.ndim == 1:
        if not ok:
            raise NotPositiveDefinite(
                f"second argument is not positive definite "
                f"(lmin {spec.lmin:.3e}, lmax {spec.lmax:.3e})"
            )
    elif not ok.all():
        k = int(np.argmin(ok))
        raise NotPositiveDefinite(
            f"second argument is not positive definite on slice {k} "
            f"(lmin {spec.lmin[k]:.3e}, lmax {spec.lmax[k]:.3e})"
        )


def _gram_value(diff: np.ndarray, spec: SpectralDecomposition, alpha: float,
                support_rel: float, pseudo: bool) -> np.ndarray:
    """``||B^((alpha-1)/2) diff B^(-alpha/2)||_HS^2`` per matrix: ``diff`` is
    ``(d, d)`` against one spectrum, or any stack that broadcasts against
    a stacked one.  ``alpha`` is a float, or K orders on a leading axis
    (``(K, 1)`` for one spectrum, ``(K, 1, 1)`` for a stack), which adds a
    leading K axis to the values.

    That is ``sum_ij w_i^(alpha-1) w_j^(-alpha) |X_ij|^2``, ``X = V* diff V``:
    one congruence, shared by every order, as two real matmuls on float
    views through ``_real_v`` (small real GEMMs cost a fraction of complex
    ones per slice), then one BLAS dot of ``|X|^2`` against the outer
    product of ``power``'s weights per order.  Each term is a product of
    nonnegative floats, so every value is >= 0 bit for bit, and 0.0 for a
    zero ``diff``; each (order, slice) value equals its own float, 2-D call
    bit for bit."""
    left, right = spec._powers(alpha - 1.0, -alpha, pseudo=pseudo, support_rel=support_rel)
    e = spec._real_v
    y = np.ascontiguousarray(diff, dtype=np.complex128).view(np.float64) @ e
    xh = np.conjugate(y.view(np.complex128).swapaxes(-1, -2), order="C").view(np.float64) @ e
    sq = xh * xh
    sq = sq[..., 0::2] + sq[..., 1::2]  # |X_ij|^2 at [j, i]
    weights = right[..., :, None] * left[..., None, :]
    if sq.ndim == weights.ndim == 2:  # one matrix at one order: np.vdot flattens both
        return np.vdot(sq, weights)
    return _dots(sq.reshape(*sq.shape[:-2], -1), weights.reshape(*weights.shape[:-2], -1))


def _finite_gram(diff: np.ndarray, spec: SpectralDecomposition, alpha: float,
                 support_rel: float, pseudo: bool) -> float:
    """``_gram_value`` of one ``(d, d)`` ``diff`` against one spectrum, never
    an inf.  Past ``||diff||_HS^2 = 4^_SAFE_EXP`` the squares of X may
    overflow; if they do, the value is taken again on ``diff 2^-e`` and
    scaled back by ``2^(2e)``, both exact.  Every term is nonnegative, so a
    value still past the float maximum is one, and raises ValueError."""
    args = spec, alpha, support_rel, pseudo
    if np.vdot(diff, diff).real <= 4.0**_SAFE_EXP:
        val = float(_gram_value(diff, *args))
    else:
        with np.errstate(over="ignore"):
            val = float(_gram_value(diff, *args))
            if not val < np.inf:
                e = int(np.frexp(np.maximum(abs(diff.real), abs(diff.imag)).max())[1])
                val = float(np.ldexp(_gram_value(_ldexp(diff, -e), *args), 2 * e))
    if not val < np.inf:
        raise ValueError("divergence exceeds the float maximum")
    return val


def chi2(a: PsdOperator, b: PsdOperator, alpha: float) -> float:
    """Divergence of A against positive definite B; always >= 0."""
    return _chi2(a, b, Alpha(alpha))


def _chi2(a: PsdOperator, b: PsdOperator, alpha: float) -> float:
    """``chi2`` for an order already checked: checks the dimensions and B's
    positive definiteness, then evaluates."""
    _require_same_dim(a, b)
    spec = b.spectrum()
    _require_pd(spec, b.tol)
    return _finite_gram(a.mat - b.mat, spec, alpha, b.tol.support, pseudo=False)


def quadratic_relative_entropy(a: PsdOperator, b: PsdOperator) -> float:
    """The alpha = 0 member of the family, tr (A - B) B^(-1) (A - B)."""
    return chi2(a, b, 0.0)


def chi2_extended(a: PsdOperator, b: PsdOperator, alpha: float) -> DivergenceValue:
    """Extended divergence allowing singular B.

    Infinite exactly when supp A is not contained in supp B; otherwise
    the trace is taken over supp B via pseudo-powers.
    """
    alpha = Alpha(alpha)
    _require_same_dim(a, b)
    if not support_contained(a, b):
        return DivergenceValue.infinite()
    return DivergenceValue.finite(
        _finite_gram(a.mat - b.mat, b.spectrum(), alpha, b.tol.support, pseudo=True))


def chi2_limit_probe(
    a: PsdOperator,
    b: PsdOperator,
    alpha: float,
    eps_schedule,
) -> list[float]:
    """Divergences against B + eps*I along a decreasing epsilon schedule.

    When supp A lies inside supp B the tail approaches the extended
    divergence; otherwise the values grow without bound as eps shrinks.
    Each epsilon is one evaluation against ``b.spectrum().shift(eps)``,
    guarded as ``chi2`` is: a value past the float maximum raises.
    """
    alpha = Alpha(alpha)
    _require_same_dim(a, b)
    eps = [float(e) for e in eps_schedule]
    if not eps:
        raise ValueError("epsilon schedule must be non-empty")
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ValueError("epsilon schedule must be strictly decreasing")
    if eps[-1] < 1e-8:
        raise ValueError("epsilon schedule must stay at or above 1e-8")
    spec, diff, eye = b.spectrum(), a.mat - b.mat, np.eye(a.dim)
    return [_finite_gram(diff - e * eye, spec.shift(e), alpha, 0.0, pseudo=False) for e in eps]


def _query_powers(spec: SpectralDecomposition, alpha: float) -> np.ndarray:
    """``[D^-alpha; D^(alpha-1)]``, the two powers stacked along the rows:
    ``(2n, n)``, or one such stack per slice of a stacked spectrum, and per
    order of an order axis as ``power`` takes it."""
    return np.concatenate([
        spec.power(-alpha, support_rel=0.0),
        spec.power(alpha - 1.0, support_rel=0.0),
    ], axis=-2)


def _query_stack(d: PdOperator, spec: SpectralDecomposition, alpha: float) -> np.ndarray:
    """Read-only ``_query_powers`` of D.

    Built from the spectrum once per (operator, alpha) and cached on the
    immutable operator beside its spectrum.
    """
    stacks = d.__dict__.setdefault("_query_stacks", {})
    stack = stacks.get(alpha)
    if stack is None:
        stack = _query_powers(spec, alpha)
        stack.flags.writeable = False
        stacks[alpha] = stack
    return stack


def _shifted_values(stack: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """``tr(R D^-alpha) * tr(R D^(alpha-1))`` for ``R = v v*`` and a unit
    vector ``v``, read off a query stack: one ``(n,)`` vector, or a stack of
    vectors against a stack of query stacks.  Per vector, one
    matrix-vector product ``u = stack v`` and one ``(2, n)`` product of
    ``u``'s halves with ``conj(v)`` give both inner products; each slice of
    a stack equals its one-vector call bit for bit."""
    n = v.shape[-1]
    if v.ndim == 1:
        # one query, read back on plain floats: numpy's per-call cost on
        # scalars would dominate the rank-one query loop
        s_neg, s_one = (stack.dot(v).reshape(2, n) @ v.conj()).real.tolist()
        return max(s_neg, 0.0) * max(s_one, 0.0)
    u = np.matmul(stack, v[..., None])
    s = (u.reshape(*u.shape[:-2], 2, n) @ v.conj()[..., None])[..., 0].real
    return np.maximum(s[..., 0], 0.0) * np.maximum(s[..., 1], 0.0)


def chi2_shifted(r: RankOneProjection, d: PdOperator, alpha: float) -> float:
    """Shifted rank-one query tr(R D^-alpha) * tr(R D^(alpha-1)).

    For unit-trace D this equals chi2(R, D, alpha) + 1.  It is the query
    of the rank-one oracle, a product of two Hermitian forms in R's
    vector; ``spectral_peel`` fits both forms and reads D's spectrum off
    them.  This public function
    checks the order, the dimensions and positive definiteness of D on
    every call; ``rank_one_query_oracle`` checks the order and D once,
    when it is built.  The two powers of D are built once per (D, alpha)
    from D's cached eigendecomposition; after that a call in dimension n
    costs one ``(2n, n)`` matrix-vector product and one ``(2, n)``
    product, O(n^2).
    """
    alpha = Alpha(alpha)
    _require_same_dim(r, d)
    spec = d.spectrum()
    _require_pd(spec, d.tol)
    return float(_shifted_values(_query_stack(d, spec, float(alpha)), r.vector))
