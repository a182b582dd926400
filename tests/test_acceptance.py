"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see
them all); the assertions carry the same conditions.
"""

import numpy as np
import pytest

from chi2lab import (
    ConjugationMap,
    PdOperator,
    PsdOperator,
    RankOneProjection,
    chi2,
    chi2_extended,
    chi2_limit_probe,
    chi2_oracle,
    chi2_shifted,
    distinguish_from_bregman,
    distinguish_from_f_divergence,
    distinguish_from_jensen,
    eigh,
    frac_power,
    jacobi_eigh,
    preserver_decompile,
    quadratic_form_tomography,
    rank_one_query_oracle,
    run_property_suite,
    spectral_peel,
    support_contained,
    support_projection,
)
from chi2lab.ensembles import (
    haar_stack,
    haar_unitary,
    random_nonsingular_density,
    random_psd,
)
from chi2lab.linalg import op_norm

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DIMS = (2, 3, 4)


def _report(num: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def suite_reports():
    return run_property_suite(ALPHAS, DIMS, trials=200, seed=0)


def test_criterion_1_counterexample_closed_form():
    p = PsdOperator(np.diag([1.0, 0.0]))
    worst_rel = 0.0
    value_at_1 = None
    for n in range(1, 101):
        root = np.array([[1.0, 1.0 / n], [1.0 / n, 2.0 / n**2]])
        b = PdOperator(root @ root)
        numeric = chi2(p, b, 0.0)
        closed = 4.0 + n**2 - 2.0 + (1.0 + 2.0 / n**2 + 4.0 / n**4)
        worst_rel = max(worst_rel, abs(numeric - closed) / closed)
        if n == 1:
            value_at_1 = numeric
    ok = worst_rel <= 1e-6 and abs(value_at_1 - 10.0) <= 1e-9
    _report(
        1,
        f"closed form matches for n=1..100 (worst rel {worst_rel:.2e}, "
        f"n=1 value {value_at_1:.12f})",
        ok,
    )


def test_criterion_2_support_dichotomy():
    rng = np.random.default_rng(2024)
    mismatches = 0
    worst_tail = 0.0
    growth_violations = 0
    contained_count = 0
    for trial in range(500):
        d = int(rng.integers(2, 5))
        alpha = float(rng.choice(ALPHAS))
        if trial % 2 == 0:
            b = random_psd(d, rng)
            supp = support_projection(b)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            raw = supp @ (g @ g.conj().T) @ supp
            a = PsdOperator(raw / max(1.0, float(np.trace(raw).real)))
        else:
            a = random_psd(d, rng)
            b = random_psd(d, rng)
        contained = support_contained(a, b)
        extended = chi2_extended(a, b, alpha)
        if extended.is_infinite == contained:
            mismatches += 1
        probes = chi2_limit_probe(a, b, alpha, (1e-2, 1e-4, 1e-6))
        if contained:
            contained_count += 1
            worst_tail = max(worst_tail, abs(probes[-1] - extended.value))
        elif not probes[0] < probes[1] < probes[2]:
            growth_violations += 1
    ok = mismatches == 0 and worst_tail <= 1e-4 and growth_violations == 0
    _report(
        2,
        f"dichotomy exact on 500 pairs ({contained_count} contained), "
        f"probe tail within {worst_tail:.2e}",
        ok,
    )


def test_criterion_3_divergence_axioms(suite_reports):
    named = {
        "nonnegativity-identity",
        "unitary-invariance",
        "homogeneity",
        "product-rule",
        "strict-convexity",
        "operator-norm-bound",
    }
    relevant = [r for r in suite_reports if r.name in named]
    failures = sum(r.failures for r in relevant)
    ok = failures == 0 and len(relevant) == len(named) * len(ALPHAS) * len(DIMS)
    _report(
        3,
        f"axioms hold over {len(relevant)} (property, alpha, dim) blocks "
        f"x 200 trials, {failures} failures",
        ok,
    )


def _hermitian_basis(d):
    """An orthonormal basis of the d x d Hermitian matrices (real inner
    product Re tr X Y), as a ``(d^2, d, d)`` stack."""
    basis = []
    for j in range(d):
        for k in range(j, d):
            e = np.zeros((d, d), dtype=np.complex128)
            if j == k:
                e[j, j] = 1.0
                basis.append(e)
                continue
            e[j, k] = e[k, j] = 2**-0.5
            basis.append(e.copy())
            e[j, k], e[k, j] = -1j * 2**-0.5, 1j * 2**-0.5
            basis.append(e)
    return np.array(basis)


def _quadratic_gram(b, alpha, basis):
    """The real Gram matrix of Q_B(X) = tr B^-alpha X B^(alpha-1) X on ``basis``."""
    p, r = frac_power(b, -alpha).mat, frac_power(b, alpha - 1.0).mat
    return np.einsum("ij,njk,kl,mli->nm", p, basis, r, basis).real


def test_criterion_4_trace_infimum_and_monotonicity(suite_reports):
    # K(X||B) - K(X||C) = Q_B(X) - Q_C(X) + tr B - tr C, so the infimum over
    # X > 0 is tr B - tr C exactly when Q_B - Q_C is positive semidefinite on
    # Hermitian X, and it is approached along X = eps I
    rng = np.random.default_rng(41)
    probe_rng = np.random.default_rng(42)
    basis = _hermitian_basis(2)
    least = np.inf
    worst = 0.0
    for k in range(10):
        alpha = ALPHAS[k % len(ALPHAS)]
        b = random_psd(2, rng, rank=2)
        bump = random_psd(2, rng, rank=2, scale=0.5)
        b_op = PdOperator(b.mat + 0.05 * np.eye(2))
        c_op = PdOperator(b_op.mat + bump.mat)
        target = b_op.trace() - c_op.trace()
        gram = _quadratic_gram(b_op, alpha, basis) - _quadratic_gram(c_op, alpha, basis)
        least = min(least, jacobi_eigh(gram)[0][-1])
        for _ in range(5):
            x = random_psd(2, probe_rng)
            coords = np.einsum("nij,ji->n", basis, x.mat).real
            gap = chi2(x, b_op, alpha) - chi2(x, c_op, alpha)
            worst = max(worst, abs(gap - (coords @ gram @ coords + target)))
        eps = PdOperator(1e-6 * np.eye(2))
        worst = max(worst, abs(chi2(eps, b_op, alpha) - chi2(eps, c_op, alpha) - target))
    mono = [
        r for r in suite_reports if r.name in ("trace-monotonicity", "loewner-heinz")
    ]
    mono_failures = sum(r.failures for r in mono)
    ok = least > 0.0 and worst <= 1e-10 and mono_failures == 0
    _report(
        4,
        f"Q_B - Q_C positive definite on 10 ordered pairs (least eigenvalue "
        f"{least:.2e}); identity and X = 1e-6 I within {worst:.2e} of the "
        f"trace difference; "
        f"monotonicity suite failures {mono_failures}",
        ok,
    )


def test_criterion_5_tomography():
    worst = 0.0
    budget_ok = True
    for alpha in (0.0, 0.5, 1.0):
        for d in (2, 3):
            rng = np.random.default_rng(int(alpha * 10) * 100 + d)
            for _ in range(20):
                hidden = random_psd(d, rng)
                oracle = chi2_oracle(hidden, alpha)
                recovered = quadratic_form_tomography(oracle, d, alpha)
                worst = max(worst, op_norm(recovered.mat - hidden.mat))
                budget_ok = budget_ok and oracle.count == d * d * 3
    ok = worst <= 1e-6 and budget_ok
    _report(
        5,
        f"120 exact-oracle recoveries within {worst:.2e}, query budgets exact",
        ok,
    )


def _gapped_density(d, rng):
    while True:
        dens = random_nonsingular_density(d, rng)
        lam = eigh(dens).eigenvalues
        if len(lam) == d and min(
            a - b for a, b in zip(lam, lam[1:])
        ) >= 1e-2:
            return dens


def test_criterion_6_spectral_peeling():
    # q(v) = <v, A v> <v, B v> with A = D^-alpha and B = D^(alpha-1), both
    # decreasing in D's eigenvalues on D's eigenvectors, so
    # lmin(A) lmin(B) = 1/lmax(D) <= q(v) <= lmax(A) lmax(B) = 1/lmin(D),
    # attained at D's extreme eigenvectors
    haar_rng = np.random.default_rng(66)
    worst_reassembly = 0.0
    worst_extremal = 0.0
    escapes = 0
    for d in (2, 3):
        rng = np.random.default_rng(60 + d)
        for k in range(20):
            alpha = ALPHAS[k % len(ALPHAS)]
            dens = _gapped_density(d, rng)
            spec = spectral_peel(rank_one_query_oracle(dens, alpha), d, alpha)
            worst_reassembly = max(
                worst_reassembly, op_norm(spec.reassemble() - dens.mat)
            )
            lam = eigh(dens).eigenvalues
            w_a = jacobi_eigh(frac_power(dens, -alpha).mat)[0]
            w_b = jacobi_eigh(frac_power(dens, alpha - 1.0).mat)[0]
            low, high = w_a[-1] * w_b[-1], w_a[0] * w_b[0]

            def q(v):
                return chi2_shifted(RankOneProjection(v), dens, alpha)

            values = np.array([q(v) for v in haar_stack(d, haar_rng, 100)[:, :, 0]])
            slack = 1e-12 * high
            escapes += int(np.sum((values < low - slack) | (values > high + slack)))
            worst_extremal = max(
                worst_extremal,
                abs(low - 1.0 / lam[0]),
                abs(high - 1.0 / lam[-1]),
                abs(q(spec.v[:, 0]) - low),
                abs(q(spec.v[:, -1]) - high),
            )
    ok = worst_reassembly <= 1e-5 and worst_extremal <= 1e-10 and escapes == 0
    _report(
        6,
        f"40 peels reassemble within {worst_reassembly:.2e}; 4000 Haar queries "
        f"inside the eigenvalue bounds ({escapes} outside); extremal values "
        f"attained at the peeled eigenvectors within {worst_extremal:.2e} of "
        f"the eigensolver",
        ok,
    )


def test_criterion_7_preserver_decompiler():
    worst_verify = 0.0
    worst_scale = 0.0
    kind_ok = True
    count = 0
    for kind in ("unitary", "antiunitary"):
        for d in (2, 3):
            rng = np.random.default_rng(700 + 10 * d + (kind == "antiunitary"))
            for k in range(5):
                truth = ConjugationMap(haar_unitary(d, rng), kind)
                report = preserver_decompile(
                    truth.as_preserver(), d, ALPHAS[k % len(ALPHAS)], seed=k
                )
                count += 1
                kind_ok = kind_ok and report.recovered.kind == kind and report.ok
                worst_verify = max(worst_verify, report.verification_residual)
                worst_scale = max(worst_scale, report.scale_consistency_residual)
    doubling = preserver_decompile(lambda a: PdOperator(2 * a.mat), 2, 0.5)
    rejected = "trace" in doubling.failures
    ok = (
        kind_ok
        and worst_verify <= 1e-6
        and worst_scale <= 1e-5
        and rejected
        and count == 20
    )
    _report(
        7,
        f"20 conjugations recovered (verify {worst_verify:.2e}, scale "
        f"{worst_scale:.2e}); doubling map rejected at stage 1",
        ok,
    )


def test_criterion_8_distinguishers():
    end0 = distinguish_from_f_divergence(0.0, 2, seed=8)
    end1 = distinguish_from_f_divergence(1.0, 2, seed=8)
    half = distinguish_from_f_divergence(0.5, 2, budget=1000, seed=8)
    bregman = distinguish_from_bregman(0.5)
    jensen = distinguish_from_jensen(0.5, 2)
    ok = (
        end0.equality
        and end0.max_residual <= 1e-9
        and end1.equality
        and end1.max_residual <= 1e-9
        and half.witness is not None
        and half.witness["gap"] >= 0.01
        and bregman.fit_residual >= 0.1
        and abs(jensen.gap - 8.0 / 3.0) <= 1e-9
    )
    _report(
        8,
        f"endpoint equality ({max(end0.max_residual, end1.max_residual):.1e}), "
        f"interior witness gap {0.0 if half.witness is None else half.witness['gap']:.3f}, "
        f"quadratic-fit residual {bregman.fit_residual:.2f}, "
        f"asymmetry gap {jensen.gap:.6f}",
        ok,
    )
