"""The ``_unchecked`` fast paths, checked against the invariants they skip.

``operators._unchecked`` wraps an array in an operator type without
validation and may prime a spectrum known by construction.  The fixture
swaps it, in every ``chi2lab`` module that bound it, for a version that
builds the object through its class's validating constructor and checks
a primed spectrum against the matrix (orthonormal eigenvectors,
non-increasing eigenvalues, reassembly).  The stacked samplers build
their spectra known by construction in ``ensembles._spectra``; the
fixture wraps it to check every slice against its matrix the same way.
A ``PsdOperator`` certified without an eigensolve, or wrapped without a
spectrum, solves it on the first ``spectrum()`` call; the fixture wraps
that lazy solve too, and checks each spectrum it returns against the
matrix, with every eigenvalue clamped to ``>= 0``.
Each pipeline that takes a fast path then runs once at d = 3.  The
fixed probe sets (tomography's probe states, the peel's probes and
``projection_family``) are cached, so the fixture clears those caches
before each case, which makes the case build them through the checked
path, and after it, so the rebuilt objects reach no later test.
"""

import sys

import numpy as np
import pytest

from chi2lab import (
    ConjugationMap,
    PdOperator,
    chi2,
    chi2_oracle,
    distinguish_from_f_divergence,
    preserver_decompile,
    quadratic_form_tomography,
    rank_one_query_oracle,
    run_property_suite,
    spectral_peel,
)
from chi2lab import ensembles, operators, peeling, tomography
from chi2lab.config import DEFAULT_TOL
from chi2lab.ensembles import haar_unitary, random_nonsingular_density, random_psd
from chi2lab.linalg import op_norm
from chi2lab.optimize import ConeOptConfig, infimum_over_pd, maximize_over_states

CONE = ConeOptConfig(restarts=2, max_iters=200, seed=2)


def _clear_probe_caches():
    tomography._probe_states.cache_clear()
    peeling._design.cache_clear()
    operators.projection_family.cache_clear()


@pytest.fixture
def checked(monkeypatch):
    original = operators._unchecked
    original_spectra = ensembles._spectra
    original_solve = operators.PsdOperator._solve
    # built: objects or stacks checked; primed: spectra checked; lazy: lazy
    # solves checked; reached: modules whose _unchecked was called
    counts = {"built": 0, "primed": 0, "lazy": 0, "reached": set()}

    def rebuild_in(module):
        def rebuild(cls, mat, *, tol=DEFAULT_TOL, spectrum=None):
            obj = cls(mat, tol)
            counts["built"] += 1
            counts["reached"].add(module)
            if spectrum is not None:
                spectrum.validate(obj.mat)
                obj.__dict__["_spectrum"] = spectrum
                counts["primed"] += 1
            return obj

        return rebuild

    def spectra(eigs, rng):
        mats, spec = original_spectra(eigs, rng)
        spec.validate(mats)
        counts["built"] += 1
        counts["primed"] += 1
        return mats, spec

    def solve(self):
        spec = original_solve(self)
        assert spec.w.min() >= 0.0
        spec.validate(self.mat)
        counts["lazy"] += 1
        return spec

    patched = [
        name for name, mod in list(sys.modules.items())
        if name.startswith("chi2lab") and getattr(mod, "_unchecked", None) is original
    ]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_unchecked", rebuild_in(name))
    assert {"chi2lab.ensembles", "chi2lab.tomography"} <= set(patched)
    monkeypatch.setattr(ensembles, "_spectra", spectra)
    monkeypatch.setattr(operators.PsdOperator, "_solve", solve)
    _clear_probe_caches()
    yield counts
    _clear_probe_caches()


def _suite():
    reports = run_property_suite((0.0, 0.5, 1.0), (3,), trials=2, seed=0)
    assert all(r.ok for r in reports)


def _tomography():
    hidden = random_psd(3, np.random.default_rng(1))
    rec = quadratic_form_tomography(chi2_oracle(hidden, 0.25), 3, 0.25)
    assert op_norm(rec.mat - hidden.mat) <= 1e-6


def _tomography_at_an_endpoint():
    # alpha 0 fits tr(A^2 P) and takes the square root of a PsdOperator
    # certified without a solve: its spectrum is solved lazily
    hidden = random_psd(3, np.random.default_rng(1))
    rec = quadratic_form_tomography(chi2_oracle(hidden, 0.0), 3, 0.0)
    assert op_norm(rec.mat - hidden.mat) <= 1e-6


def _peel():
    hidden = random_nonsingular_density(3, np.random.default_rng(2))
    spec = spectral_peel(rank_one_query_oracle(hidden, 0.5), 3, 0.5)
    assert op_norm(spec.reassemble() - hidden.mat) <= 1e-5


def _decompile():
    for kind in ("unitary", "antiunitary"):
        truth = ConjugationMap(haar_unitary(3, np.random.default_rng(3)), kind)
        report = preserver_decompile(truth.as_preserver(), 3, 0.5)
        assert report.ok and report.recovered.kind == kind


def _f_divergence():
    assert distinguish_from_f_divergence(0.0, 3, budget=5).equality
    distinguish_from_f_divergence(0.5, 3, budget=5)


def _infimum():
    b = PdOperator(np.diag([1.0, 1.0]))
    c = PdOperator(np.diag([2.0, 1.0]))
    res = infimum_over_pd(lambda x: chi2(x, b, 0.0) - chi2(x, c, 0.0), 2, CONE)
    assert abs(res.value + 1.0) <= 1e-3


def _states():
    half = PdOperator(np.eye(2) / 2)
    res = maximize_over_states(lambda x: chi2(x, half, 0.5), 2, CONE)
    assert abs(res.state.trace() - 1.0) <= 1e-10
    # the state is wrapped without a spectrum; reading it solves lazily
    assert abs(res.state.spectrum().w.sum() - 1.0) <= 1e-10


# the cases that solve a spectrum lazily
LAZY = {_tomography_at_an_endpoint, _states}

# the modules whose own _unchecked calls a case must reach
REACHES = {
    _tomography: {"chi2lab.tomography"},
    _tomography_at_an_endpoint: {"chi2lab.tomography"},
    _decompile: {"chi2lab.decompile", "chi2lab.wigner"},
    _infimum: {"chi2lab.optimize"},
    _states: {"chi2lab.optimize"},
}


@pytest.mark.parametrize(
    "run, primes",
    [
        (_suite, True),
        (_tomography, True),
        (_tomography_at_an_endpoint, True),
        (_peel, True),
        (_decompile, True),
        (_f_divergence, True),
        (_infimum, False),
        (_states, False),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)).strip("_"),
)
def test_fast_paths_keep_their_invariants(checked, run, primes):
    run()
    assert checked["built"] > 0
    assert (checked["primed"] > 0) == primes
    assert (checked["lazy"] > 0) == (run in LAZY)
    assert REACHES.get(run, set()) <= checked["reached"]
