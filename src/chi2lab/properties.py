"""Randomized verification of the divergence identities and inequalities.

Each (property, dim) group draws its trials once, as one stack from its
own seeded generator, and checks every requested alpha on those same
inputs with the library's stacked kernels: one Jacobi solve or one
congruence of the chi2 kernel covers every trial of the group, and the
orders ride on a leading axis.  A property takes the K orders as a
``(K, 1, 1)`` array and the trial count n, and returns ``(K, n)`` ``ok``
flags and residuals, and a witness for any one (order, trial).  Row k of
the group is the (alphas[k], dim) report, which therefore does not
depend on the other orders requested.  A report records its failure
count, its worst residual, and (on failure) a replayable witness: the
inputs of the failing trial with the largest residual, serialized in
matrix JSON.  The shipped baseline is zero failures on default seeds.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import DEFAULT_TOL
from .divergence import Alpha, _gram_value, _query_powers, _require_pd, _shifted_values
from .ensembles import (
    haar_stack,
    hermitian_stack,
    nonsingular_density_stack,
    pd_stack,
    psd_stack,
    unit_vector_stack,
)
from .linalg import hermitian_part, jacobi_eigh, spectral_decomposition
from .matio import matrix_to_obj

__all__ = ["PropertyReport", "PROPERTY_NAMES", "run_property_suite",
           "reports_to_obj", "render_text"]


@dataclass(frozen=True)
class PropertyReport:
    name: str
    alpha: float
    dim: int
    trials: int
    failures: int
    worst_residual: float
    witness: dict | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _chi2s(a, b, spec, alpha):
    """chi2 of each A against each B, through the kernels of ``chi2``."""
    _require_pd(spec, DEFAULT_TOL)
    return _gram_value(a - b, spec, alpha, DEFAULT_TOL.support, pseudo=False)


def _op_norms(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x, 2, axis=(-2, -1))


def _traces(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1).real


def _outer(v: np.ndarray) -> np.ndarray:
    """The projections ``v v*`` of a stack of unit vectors."""
    return v[:, :, None] * v.conj()[:, None, :]


def _witness(**fields) -> dict:
    out = {}
    for key, value in fields.items():
        if isinstance(value, np.ndarray) and value.ndim == 2:
            out[key] = matrix_to_obj(value)
        elif isinstance(value, np.ndarray):
            out[key] = value.tolist()
        else:
            out[key] = float(value)
    return out


def _prop_nonnegativity_identity(rng, alpha, d, n):
    b, bs = pd_stack(d, rng, n)
    a, _ = psd_stack(d, rng, n)
    v = _chi2s(a, b, bs, alpha)
    v_same = _chi2s(b, b, bs, alpha)
    residual = np.maximum(-v, v_same - 1e-10)
    separated = _op_norms(a - b) > 1e-6 * (1.0 + bs.lmax)
    residual = np.where(separated, np.maximum(residual, 1e-10 - v), residual)
    ok = residual <= 0.0
    return ok, np.maximum(residual, 0.0), lambda k, t: _witness(a=a[t], b=b[t], value=v[k, t])


def _prop_unitary_invariance(rng, alpha, d, n):
    a, as_ = psd_stack(d, rng, n)
    b, bs = pd_stack(d, rng, n)
    u = haar_stack(d, rng, n)
    base = _chi2s(a, b, bs, alpha)
    # UAU* with the spectrum rotated instead of recomputed
    ra, rb = replace(as_, v=u @ as_.v), replace(bs, v=u @ bs.v)
    rotated = _chi2s(ra.reassemble(), rb.reassemble(), rb, alpha)
    residual = np.abs(rotated - base)
    ok = residual <= 1e-9
    return ok, residual, lambda k, t: _witness(a=a[t], b=b[t], u=u[t])


def _prop_homogeneity(rng, alpha, d, n):
    a, _ = psd_stack(d, rng, n)
    b, bs = pd_stack(d, rng, n)
    base = _chi2s(a, b, bs, alpha)
    residual = np.zeros(n)
    for lam in (0.1, 1.0, 7.3):
        scaled = _chi2s(lam * a, lam * b, bs.scale(lam), alpha)
        residual = np.maximum(residual, np.abs(scaled - lam * base) / lam)
    ok = residual <= 1e-9
    return ok, residual, lambda k, t: _witness(a=a[t], b=b[t])


def _prop_product_rule(rng, alpha, d, n):
    r = _outer(unit_vector_stack(d, rng, n))
    x = hermitian_stack(d, rng, n)
    y = hermitian_stack(d, rng, n)
    lhs = _traces(r @ x @ r @ y)
    rhs = _traces(r @ x) * _traces(r @ y)
    # the same check for every order
    residual = np.broadcast_to(np.abs(lhs - rhs), (len(alpha), n))
    ok = residual <= 1e-10
    return ok, residual, lambda k, t: _witness(r=r[t], x=x[t], y=y[t])


def _prop_rank_one_query(rng, alpha, d, n):
    dens, ds = nonsingular_density_stack(d, rng, n)
    v = unit_vector_stack(d, rng, n)
    r = _outer(v)
    shifted = _shifted_values(_query_powers(ds, alpha), v)
    direct = _chi2s(r, dens, ds, alpha) + 1.0
    residual = np.abs(shifted - direct)
    ok = residual <= 1e-10
    return ok, residual, lambda k, t: _witness(r=r[t], d=dens[t])


def _prop_strict_convexity(rng, alpha, d, n):
    b, bs = pd_stack(d, rng, n)
    a1, _ = psd_stack(d, rng, n)
    a2, _ = psd_stack(d, rng, n)
    # inputs too close for a meaningful strictness check pass as they are
    close = np.linalg.norm(a1 - a2, axis=(-2, -1)) < 1e-3
    mid = (a1 + a2) / 2.0
    gap = (_chi2s(a1, b, bs, alpha) + _chi2s(a2, b, bs, alpha)) / 2.0 - _chi2s(mid, b, bs, alpha)
    residual = np.where(close, 0.0, np.maximum(0.0, 1e-12 - gap))
    ok = close | (gap > 1e-12)
    return ok, residual, lambda k, t: _witness(a1=a1[t], a2=a2[t], b=b[t], gap=gap[k, t])


def _prop_operator_norm_bound(rng, alpha, d, n):
    a, as_ = pd_stack(d, rng, n)
    a2, _ = pd_stack(d, rng, n)
    value = _chi2s(a2, a, as_, alpha)
    bound = _op_norms(a2 - a) ** 2 / as_.lmax
    residual = np.maximum(0.0, bound - value)
    ok = residual <= 1e-9
    return ok, residual, lambda k, t: _witness(a=a[t], a_prime=a2[t])


def _prop_first_variable_continuity(rng, alpha, d, n):
    a, _ = psd_stack(d, rng, n)
    b, bs = pd_stack(d, rng, n)
    bump, bumps = psd_stack(d, rng, n, rank=d)
    bump = bump / bumps.lmax[:, None, None]
    base = _chi2s(a, b, bs, alpha)
    diffs = np.array([
        np.abs(_chi2s(a + eps * bump, b, bs, alpha) - base)
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ])
    # the response is |c1 eps + c2 eps^2| with sign-indefinite c1, so a
    # near-cancellation can make one coarse point dip; convergence is
    # judged on the tail transition with an absolute floor
    floor = 1e-9 * (1.0 + base)
    tail_shrinks = diffs[-1] <= np.maximum(0.2 * diffs[-2], floor)
    residual = diffs[-1]
    ok = tail_shrinks & (residual <= 1e-4 * (1.0 + base))
    return ok, residual, lambda k, t: _witness(a=a[t], b=b[t], diffs=diffs[:, k, t])


def _ordered_pd_pair(rng, d, n):
    """B, its spectrum, and C = B + (a full-rank PSD increment) > B, with
    C's spectrum computed."""
    b, bs = pd_stack(d, rng, n)
    inc, _ = psd_stack(d, rng, n, rank=d, scale=0.5)
    c = b + inc
    return b, bs, c, spectral_decomposition(c)


def _prop_trace_monotonicity(rng, alpha, d, n):
    b, bs, c, cs = _ordered_pd_pair(rng, d, n)
    x, _ = pd_stack(d, rng, n)
    # tr(B^-alpha X B^(alpha-1) X) for Hermitian X is the Gram form of chi2
    t_small = _gram_value(x, bs, alpha, DEFAULT_TOL.support, pseudo=False)
    t_large = _gram_value(x, cs, alpha, DEFAULT_TOL.support, pseudo=False)
    residual = np.maximum(0.0, t_large - t_small)
    ok = residual <= 1e-9
    return ok, residual, lambda k, t: _witness(b=b[t], c=c[t], x=x[t])


def _prop_loewner_heinz(rng, alpha, d, n):
    b, bs, c, cs = _ordered_pd_pair(rng, d, n)
    diff = bs.power(-alpha) - cs.power(-alpha)
    w, _ = jacobi_eigh(hermitian_part(diff).reshape(-1, d, d))
    residual = np.maximum(0.0, -w[:, -1]).reshape(len(alpha), n)
    ok = residual <= 1e-9
    return ok, residual, lambda k, t: _witness(b=b[t], c=c[t])


_PROPERTIES = (
    ("nonnegativity-identity", _prop_nonnegativity_identity),
    ("unitary-invariance", _prop_unitary_invariance),
    ("homogeneity", _prop_homogeneity),
    ("product-rule", _prop_product_rule),
    ("rank-one-query-consistency", _prop_rank_one_query),
    ("strict-convexity", _prop_strict_convexity),
    ("operator-norm-bound", _prop_operator_norm_bound),
    ("first-variable-continuity", _prop_first_variable_continuity),
    ("trace-monotonicity", _prop_trace_monotonicity),
    ("loewner-heinz", _prop_loewner_heinz),
)

PROPERTY_NAMES = tuple(name for name, _ in _PROPERTIES)


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def run_property_suite(alphas, dims, trials: int, seed: int) -> list[PropertyReport]:
    """Run every property for each (alpha, dim) pair; deterministic in the seed.

    Reports come in (property, alpha, dim) order.
    """
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    alphas = [Alpha(a) for a in alphas]
    dims = [_integer(d, "dimension") for d in dims]
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    if not alphas:
        return []
    orders = np.array(alphas)[:, None, None]
    reports = []
    for p_idx, (name, prop) in enumerate(_PROPERTIES):
        groups = [prop(np.random.default_rng([seed, p_idx, d]), orders, d, trials) for d in dims]
        for k, alpha in enumerate(alphas):
            for d, (ok, residual, witness) in zip(dims, groups):
                failed, residual = ~ok[k], residual[k]
                bad = None
                if failed.any():
                    # the failing trial with the largest residual
                    bad = witness(k, int(np.argmax(np.where(failed, residual, -np.inf))))
                reports.append(PropertyReport(
                    name, float(alpha), d, trials, int(failed.sum()),
                    float(residual.max()), bad,
                ))
    return reports


def reports_to_obj(reports) -> dict:
    return {
        "failures": sum(r.failures for r in reports),
        "properties": [asdict(r) for r in reports],
    }


def render_text(reports) -> str:
    lines = [
        f"{'property':<28} {'alpha':>5} {'dim':>3} {'trials':>6} "
        f"{'failures':>8} {'worst residual':>15}"
    ]
    for r in reports:
        lines.append(
            f"{r.name:<28} {r.alpha!r:>5} {r.dim:>3d} {r.trials:>6d} "
            f"{r.failures:>8d} {r.worst_residual:>15.3e}"
        )
    total = sum(r.failures for r in reports)
    lines.append(f"total failures: {total}")
    return "\n".join(lines)
