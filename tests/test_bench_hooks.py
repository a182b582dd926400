"""The benchmark tracer patches chi2lab by name; these names must stay.

``chi2bench/tracer.py`` is loaded from its file, unedited.  A refactor
that renames, merges or inherits one of the hooks it wraps would
otherwise break ``--trace 1`` runs without failing any library test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "chi2bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("chi2bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracer):
    # the tracer reads sys.modules and imports nothing itself, so a bare
    # ``import chi2lab`` in a fresh interpreter must load each traced module
    check = (
        "import json, sys\n"
        "import chi2lab\n"
        "missing = [f'{m}.{a}' for m, attrs in json.loads(sys.argv[1]).items()\n"
        "           for a in attrs if not callable(getattr(sys.modules.get(m), a, None))]\n"
        "print(json.dumps(missing))\n"
    )
    src = str(TRACER_PATH.parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", check, json.dumps(tracer.FUNCTIONS)],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []


def test_traced_methods_are_defined_on_their_class(tracer):
    # the tracer reads cls.__dict__, so an inherited method does not count
    for mod_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(cls.__dict__.get(attr)), f"{cls_name}.{attr}"
    herm = importlib.import_module("chi2lab.operators").HermitianMatrix
    assert callable(herm.__dict__.get("spectrum"))


def test_install_counts_and_uninstall_restores(tracer):
    for mod_name in tracer.FUNCTIONS:
        importlib.import_module(mod_name)
    import chi2lab.optimize as optimize
    import chi2lab.peeling as peeling
    from chi2lab import rank_one_query_oracle
    from chi2lab.ensembles import random_nonsingular_density
    from chi2lab.optimize import SphereOptConfig

    original = peeling.spectral_peel
    hidden = random_nonsingular_density(2, np.random.default_rng(3))
    before = tracer.snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert peeling.spectral_peel is not original
        oracle = rank_one_query_oracle(hidden, 0.5)
        peeling.spectral_peel(oracle, 2, 0.5)
        # peeling runs no optimizer, so drive one through its traced name
        optimize.minimize_over_rank_one(
            oracle.query, 2, SphereOptConfig(restarts=2, max_iters=50)
        )
    finally:
        t.uninstall()
    assert tracer.snapshot() == before
    assert peeling.spectral_peel is original
    names = {span[0] for span in t.spans}
    assert {"peeling.run", "optimize.run", "optimize.objective", "oracle.query",
            "operators.rank_one", "linalg.power"} <= names
    assert t.counters["operators.spectrum.hits"] + t.counters["operators.spectrum.misses"] >= 1
