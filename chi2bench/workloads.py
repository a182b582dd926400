"""The four benchmark workloads: inputs, one op, and the check of its output.

Each workload builds a fixed list of inputs from the seed (its *input
set*; one timed cycle runs every input once), runs one op on an input
through chi2lab's public API, and checks the op's output against a
reference computed outside timing.  Library functions are looked up on
the ``chi2lab`` package at call time, so the traced pass sees every call.

``check`` returns ``(ok, rel_err, queries)``: whether the output is
correct, the error that feeds ``accuracy_digits`` (None where the op has
no accuracy figure), and the oracle queries plus map calls of the op.
"""

from __future__ import annotations

import numpy as np

import chi2lab as c
from chi2lab.operators import _unchecked

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def untraced(name, fn):
    """The ``wrap`` of an untraced op: hand back ``fn`` unchanged."""
    return fn


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _rel_op_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2))


class EvalFresh:
    """Validated evaluation from raw arrays: every op pays validation plus
    an eigensolve on a matrix the library has not seen."""

    name = "eval-fresh"
    # decades spanned by the grading D; B = D H D then has a condition
    # number near 1e8, where the absolute cluster window 1e-8 * max(1, lmax)
    # still separates its smallest eigenvalues
    grading_decades = 3.75

    # ops per cycle of each (kind, d).  Ten ops are cheaper than chi2 at
    # d = 8 and ten dearer, so the latency median falls inside that block.
    # The ranks of the chi2 first arguments are spread evenly over 1..d
    # rather than drawn, since the eigensolve's cost depends on the rank.
    mix = (
        (("chi2", 4), 2), (("chi2", 8), 8), (("chi2", 16), 6),
        (("ext-contained", 4), 1), (("ext-contained", 8), 1), (("ext-contained", 16), 1),
        (("ext-leaking", 4), 1), (("ext-leaking", 8), 1), (("ext-leaking", 16), 1),
        (("graded", 4), 3), (("graded", 8), 3),
    )

    def _plan(self):
        """The mix interleaved round-robin, as (kind, d, instance, count)."""
        rounds = max(n for _, n in self.mix)
        return [(kind, d, r, n) for r in range(rounds) for (kind, d), n in self.mix if r < n]

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        inputs = []
        for kind, d, k, n in self._plan():
            if kind == "chi2":
                rank = max(1, round((k + 1) * d / n))
                arrays = (c.random_psd(d, rng, rank=rank).mat, c.random_pd(d, rng).mat)
            elif kind == "graded":
                grading = 10.0 ** -np.linspace(0.0, self.grading_decades, d)
                grading = grading[rng.permutation(d)]
                arrays = (c.random_pd(d, rng).mat * np.outer(grading, grading),)
            else:
                # B has rank d/2 on the first columns of U; a contained A
                # lives on the same columns, a leaking A is positive definite
                r = d // 2
                u = c.haar_unitary(d, rng)
                b_eigs = rng.uniform(0.25, 1.25, size=r)
                b = _herm((u[:, :r] * b_eigs) @ u[:, :r].conj().T)
                if kind == "ext-contained":
                    x = c.random_psd(r, rng, rank=r).mat
                    a = _herm(u[:, :r] @ x @ u[:, :r].conj().T)
                    arrays = (a, b, u[:, :r], b_eigs, x)
                else:
                    arrays = (c.random_pd(d, rng).mat, b)
            inputs.append((kind, d, arrays))
        return inputs

    def reference(self, inp):
        kind, d, arrays = inp
        if kind == "chi2":
            a, b = arrays
            w, v = np.linalg.eigh(b)
            refs = []
            for alpha in ALPHAS:
                left = (v * w ** ((alpha - 1.0) / 2.0)) @ v.conj().T
                right = (v * w ** (-alpha / 2.0)) @ v.conj().T
                t = left @ (a - b) @ right
                refs.append(float(np.vdot(t, t).real))
            return refs
        if kind == "ext-contained":
            # in the basis of supp B both arguments are the r x r blocks
            _, _, _, b_eigs, x = arrays
            diff = x - np.diag(b_eigs)
            refs = []
            for alpha in ALPHAS:
                t = (b_eigs[:, None] ** ((alpha - 1.0) / 2.0)) * diff * (b_eigs[None, :] ** (-alpha / 2.0))
                refs.append(float(np.vdot(t, t).real))
            return refs
        if kind == "graded":
            import mpmath

            (b,) = arrays
            with mpmath.workdps(40):
                m = mpmath.matrix(d, d)
                for i in range(d):
                    for j in range(d):
                        m[i, j] = mpmath.mpc(b[i, j].real, b[i, j].imag)
                eigs = mpmath.eigh(m, eigvals_only=True)
                return np.array(sorted((float(e) for e in eigs), reverse=True))
        return None

    def run(self, inp, wrap=untraced):
        kind, d, arrays = inp
        if kind == "chi2":
            a = c.PsdOperator(arrays[0])
            b = c.PdOperator(arrays[1])
            return [c.chi2(a, b, alpha) for alpha in ALPHAS]
        if kind == "graded":
            return c.eigh(c.PdOperator(arrays[0]))
        a = c.PsdOperator(arrays[0])
        b = c.PsdOperator(arrays[1])
        return [c.chi2_extended(a, b, alpha) for alpha in ALPHAS]

    def check(self, inp, ref, out):
        kind, d, _ = inp
        if kind == "ext-leaking":
            return all(v.is_infinite for v in out), None, 0
        if kind == "graded":
            got = np.array(out.eigenvalues)
            if got.shape != ref.shape:  # eigenvalues merged by clustering
                return False, None, 0
            # any backward-stable solver meets the normwise bound; the
            # relative error is the accuracy figure
            ok = float(np.max(np.abs(got - ref))) <= 1e-12 * ref[0]
            return ok, float(np.max(np.abs(got - ref) / ref)), 0
        if kind == "ext-contained":
            if not all(v.is_finite for v in out):
                return False, None, 0
            out = [v.value for v in out]
        errs = [abs(v - r) / r for v, r in zip(out, ref)]
        ok = all(v >= 0.0 for v in out) and max(errs) <= 1e-8
        return ok, max(errs), 0

    def warmup(self, inputs):
        for inp in inputs:
            self.run(inp)


class Suite:
    """One op is one property-suite call, as ``chi2lab suite`` runs it."""

    name = "suite"
    trials = 20
    dims = (2, 3, 4)
    # exact identities: their residuals are pure rounding error
    identities = (
        "unitary-invariance", "homogeneity", "product-rule",
        "rank-one-query-consistency",
    )

    def build(self, seed: int):
        return [("suite", seed)]

    def reference(self, inp):
        return None

    def run(self, inp, wrap=untraced):
        return c.run_property_suite(ALPHAS, self.dims, trials=self.trials, seed=inp[1])

    def check(self, inp, ref, reports):
        expected = len(c.PROPERTY_NAMES) * len(ALPHAS) * len(self.dims)
        ok = len(reports) == expected and sum(r.failures for r in reports) == 0
        err = max(r.worst_residual for r in reports if r.name in self.identities)
        return ok, err, 0

    def warmup(self, inputs):
        c.run_property_suite(ALPHAS, (2,), trials=2, seed=inputs[0][1])


class Reconstruct:
    """One op is one job: a hidden state recovered by tomography and by
    spectral peeling, each through its own query-counted oracle."""

    name = "reconstruct"
    dim = 6
    jobs = 10
    # Peeling cost follows the gaps of the hidden spectrum far more than
    # its eigenbasis, so the spectra are fixed draws of
    # random_nonsingular_density and the workload seed draws the eigenbases.
    spectra_seed = 0

    def build(self, seed: int):
        spectra = np.random.default_rng(self.spectra_seed)
        rng = np.random.default_rng(seed)
        inputs = []
        for j in range(self.jobs):
            base = c.random_nonsingular_density(self.dim, spectra)
            v = c.haar_unitary(self.dim, rng)
            hidden = c.NonsingularDensity(v @ base.mat @ v.conj().T)
            inputs.append((ALPHAS[j % len(ALPHAS)], hidden))
        return inputs

    def reference(self, inp):
        return None

    def run(self, inp, wrap=untraced):
        alpha, hidden = inp
        tomo_oracle = c.chi2_oracle(hidden, alpha)
        recovered = c.quadratic_form_tomography(tomo_oracle, self.dim, alpha)
        peel_oracle = c.rank_one_query_oracle(hidden, alpha)
        spectrum = c.spectral_peel(peel_oracle, self.dim, alpha)
        return recovered, spectrum, tomo_oracle.count + peel_oracle.count

    def check(self, inp, ref, out):
        _, hidden = inp
        recovered, spectrum, queries = out
        tomo_err = _rel_op_err(recovered.mat, hidden.mat)
        peel_err = _rel_op_err(spectrum.reassemble(), hidden.mat)
        ok = tomo_err <= 1e-9 and peel_err <= 1e-5
        return ok, max(tomo_err, peel_err), queries

    def warmup(self, inputs):
        hidden = c.random_nonsingular_density(3, np.random.default_rng(3))
        c.quadratic_form_tomography(c.chi2_oracle(hidden, 0.5), 3, 0.5)
        c.spectral_peel(c.rank_one_query_oracle(hidden, 0.5), 3, 0.5)


class Decompile:
    """One op is one preserver decompilation against a black-box map."""

    name = "decompile"
    dim = 6
    # stages a non-unitary congruence must fail; other stages may fail too
    nonpreserver_failures = frozenset((
        "trace", "orthogonality", "transition", "wigner(scale=0.5)",
        "wigner(scale=1)", "wigner(scale=2)", "synthesis", "verification",
    ))

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        d = self.dim
        inputs = [
            (kind, c.ConjugationMap(c.haar_unitary(d, rng), kind), ALPHAS[j + 1])
            for j, kind in enumerate(("unitary", "antiunitary") * 2)
        ]
        s = c.haar_unitary(d, rng) @ np.diag(np.linspace(0.6, 1.6, d)) @ c.haar_unitary(d, rng)
        inputs.append(("non-preserver", s, ALPHAS[1]))
        return inputs

    def reference(self, inp):
        return None

    @staticmethod
    def _map(target):
        if isinstance(target, c.ConjugationMap):
            return target.as_preserver()

        # unchecked like ConjugationMap.as_preserver, so a map call costs
        # the same in every op
        def congruence(a):
            return _unchecked(c.PdOperator, target @ a.mat @ target.conj().T, tol=a.tol)

        return congruence

    def run(self, inp, wrap=untraced):
        _, target, alpha = inp
        phi = wrap("decompile.map", self._map(target))
        return c.preserver_decompile(phi, self.dim, alpha)

    def check(self, inp, ref, report):
        kind, target, _ = inp
        queries = report.query_count
        if kind == "non-preserver":
            ok = not report.ok and self.nonpreserver_failures <= set(report.failures)
            return ok, None, queries
        if not report.ok or report.recovered.kind != kind:
            return False, None, queries
        got, want = report.recovered.u, target.u
        tr = np.trace(got @ want.conj().T)
        dist = float(np.linalg.norm(got - (tr / abs(tr)) * want, 2))
        return dist <= 1e-6, dist, queries

    def warmup(self, inputs):
        rng = np.random.default_rng(2)
        u = c.ConjugationMap(c.haar_unitary(2, rng), "unitary")
        c.preserver_decompile(u.as_preserver(), 2, 0.5)


WORKLOADS = {w.name: w for w in (EvalFresh(), Suite(), Reconstruct(), Decompile())}
