"""Randomized verification of the divergence identities and inequalities.

Each property runs as seeded independent trials; a report records the
failure count, the worst residual, and (on failure) a replayable
witness with the offending inputs serialized in matrix JSON.  The
shipped baseline is zero failures on default seeds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .divergence import Alpha, chi2, chi2_shifted
from .ensembles import (
    haar_unitary,
    random_hermitian,
    random_nonsingular_density,
    random_pd,
    random_projection,
    random_psd,
)
from .linalg import cluster_eigenpairs, complete_to_unitary, hermitian_part, jacobi_eigh, op_norm
from .matio import matrix_to_obj
from .operators import PdOperator, PsdOperator, _unchecked

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


def _conjugated(op, u: np.ndarray, cls):
    """UAU* with the spectrum rotated instead of recomputed."""
    spec = op.spectrum()
    rotated = replace(spec, v=u @ spec.v)
    return _unchecked(cls, rotated.reassemble(), tol=op.tol, spectrum=rotated)


def _scaled(op, factor: float, cls):
    spec = op.spectrum().scale(factor)
    return _unchecked(cls, factor * op.mat, tol=op.tol, spectrum=spec)


def _projection_operator(r) -> PsdOperator:
    w = np.zeros(r.dim)
    w[0] = 1.0
    spec = cluster_eigenpairs(w, complete_to_unitary(r.vector))
    return _unchecked(PsdOperator, r.matrix, spectrum=spec)


def _witness(**mats) -> dict:
    out = {}
    for key, value in mats.items():
        if isinstance(value, np.ndarray):
            out[key] = matrix_to_obj(value)
        elif hasattr(value, "mat"):
            out[key] = matrix_to_obj(value.mat)
        else:
            out[key] = value
    return out


def _trace_form(spec, x: np.ndarray, alpha: float) -> float:
    """tr(B^-alpha X B^(alpha-1) X) from the spectrum of B."""
    neg = spec.power(-alpha)
    one = spec.power(alpha - 1.0)
    return float(np.trace(neg @ x @ one @ x).real)


def _prop_nonnegativity_identity(rng, alpha, d):
    b = random_pd(d, rng)
    a = random_psd(d, rng)
    v = chi2(a, b, alpha)
    v_same = chi2(b, b, alpha)
    separation = op_norm(a.mat - b.mat)
    residual = max(-v, v_same - 1e-10)
    if separation > 1e-6 * (1.0 + b.spectrum().lmax):
        residual = max(residual, 1e-10 - v)
    ok = residual <= 0.0
    return ok, max(residual, 0.0), (None if ok else _witness(a=a, b=b, value=v))


def _prop_unitary_invariance(rng, alpha, d):
    a = random_psd(d, rng)
    b = random_pd(d, rng)
    u = haar_unitary(d, rng)
    base = chi2(a, b, alpha)
    rotated = chi2(
        _conjugated(a, u, PsdOperator), _conjugated(b, u, PdOperator), alpha
    )
    residual = abs(rotated - base)
    ok = residual <= 1e-9
    return ok, residual, (None if ok else _witness(a=a, b=b, u=u))


def _prop_homogeneity(rng, alpha, d):
    a = random_psd(d, rng)
    b = random_pd(d, rng)
    base = chi2(a, b, alpha)
    residual = 0.0
    for lam in (0.1, 1.0, 7.3):
        scaled = chi2(_scaled(a, lam, PsdOperator), _scaled(b, lam, PdOperator), alpha)
        residual = max(residual, abs(scaled - lam * base) / lam)
    ok = residual <= 1e-9
    return ok, residual, (None if ok else _witness(a=a, b=b))


def _prop_product_rule(rng, alpha, d):
    r = random_projection(d, rng).matrix
    x = random_hermitian(d, rng)
    y = random_hermitian(d, rng)
    lhs = float(np.trace(r @ x @ r @ y).real)
    rhs = float(np.trace(r @ x).real) * float(np.trace(r @ y).real)
    residual = abs(lhs - rhs)
    ok = residual <= 1e-10
    return ok, residual, (None if ok else _witness(r=r, x=x, y=y))


def _prop_rank_one_query(rng, alpha, d):
    dens = random_nonsingular_density(d, rng)
    r = random_projection(d, rng)
    shifted = chi2_shifted(r, dens, alpha)
    direct = chi2(_projection_operator(r), dens, alpha) + 1.0
    residual = abs(shifted - direct)
    ok = residual <= 1e-10
    return ok, residual, (None if ok else _witness(r=r.matrix, d=dens))


def _prop_strict_convexity(rng, alpha, d):
    b = random_pd(d, rng)
    a1 = random_psd(d, rng)
    a2 = random_psd(d, rng)
    if float(np.linalg.norm(a1.mat - a2.mat)) < 1e-3:
        return True, 0.0, None  # inputs too close for a meaningful strictness check
    mid = _unchecked(PsdOperator, (a1.mat + a2.mat) / 2.0)
    gap = (chi2(a1, b, alpha) + chi2(a2, b, alpha)) / 2.0 - chi2(mid, b, alpha)
    residual = max(0.0, 1e-12 - gap)
    ok = gap > 1e-12
    return ok, residual, (None if ok else _witness(a1=a1, a2=a2, b=b, gap=gap))


def _prop_operator_norm_bound(rng, alpha, d):
    a = random_pd(d, rng)
    a2 = random_pd(d, rng)
    value = chi2(a2, a, alpha)
    bound = op_norm(a2.mat - a.mat) ** 2 / a.spectrum().lmax
    residual = max(0.0, bound - value)
    ok = residual <= 1e-9
    return ok, residual, (None if ok else _witness(a=a, a_prime=a2))


def _prop_first_variable_continuity(rng, alpha, d):
    a = random_psd(d, rng)
    b = random_pd(d, rng)
    bump = random_psd(d, rng, rank=d)
    bump_mat = bump.mat / bump.spectrum().lmax
    base = chi2(a, b, alpha)
    diffs = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        perturbed = _unchecked(PsdOperator, a.mat + eps * bump_mat)
        diffs.append(abs(chi2(perturbed, b, alpha) - base))
    # the response is |c1 eps + c2 eps^2| with sign-indefinite c1, so a
    # near-cancellation can make one coarse point dip; convergence is
    # judged on the tail transition with an absolute floor
    floor = 1e-9 * (1.0 + base)
    tail_shrinks = diffs[-1] <= max(0.2 * diffs[-2], floor)
    residual = diffs[-1]
    ok = tail_shrinks and residual <= 1e-4 * (1.0 + base)
    return ok, residual, (None if ok else _witness(a=a, b=b, diffs=diffs))


def _ordered_pd_pair(rng, d):
    b = random_pd(d, rng)
    inc = random_psd(d, rng, rank=d, scale=0.5)
    c = _unchecked(PdOperator, b.mat + inc.mat)
    return b, c


def _prop_trace_monotonicity(rng, alpha, d):
    b, c = _ordered_pd_pair(rng, d)
    x = random_pd(d, rng)
    t_small = _trace_form(b.spectrum(), x.mat, alpha)
    t_large = _trace_form(c.spectrum(), x.mat, alpha)
    residual = max(0.0, t_large - t_small)
    ok = residual <= 1e-9
    return ok, residual, (None if ok else _witness(b=b, c=c, x=x))


def _prop_loewner_heinz(rng, alpha, d):
    b, c = _ordered_pd_pair(rng, d)
    diff = b.spectrum().power(-alpha) - c.spectrum().power(-alpha)
    w, _ = jacobi_eigh(hermitian_part(diff))
    residual = max(0.0, -float(w[-1]))
    ok = residual <= 1e-9
    return ok, residual, (None if ok else _witness(b=b, c=c))


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


def run_property_suite(alphas, dims, trials: int, seed: int) -> list[PropertyReport]:
    """Run every property for each (alpha, dim) pair; deterministic in the seed."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    alphas = [Alpha(a) for a in alphas]
    dims = [int(d) for d in dims]
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    reports = []
    for p_idx, (name, prop) in enumerate(_PROPERTIES):
        for a_idx, alpha in enumerate(alphas):
            for d in dims:
                rng = np.random.default_rng([seed, p_idx, a_idx, d])
                failures = 0
                worst = 0.0
                witness = None
                for _ in range(trials):
                    ok, residual, bad = prop(rng, alpha, d)
                    if not ok:
                        failures += 1
                        if bad is not None and residual >= worst:
                            witness = bad
                    worst = max(worst, residual)
                reports.append(
                    PropertyReport(name, float(alpha), d, trials, failures, worst, witness)
                )
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
            f"{r.name:<28} {r.alpha:>5.2f} {r.dim:>3d} {r.trials:>6d} "
            f"{r.failures:>8d} {r.worst_residual:>15.3e}"
        )
    total = sum(r.failures for r in reports)
    lines.append(f"total failures: {total}")
    return "\n".join(lines)
