"""Span tracer that measures chi2lab's layers from outside the library.

``Tracer.install`` wraps the public functions listed in ``FUNCTIONS`` and
rebinds every ``chi2lab.*`` module attribute that *is* the original
function object (``jacobi_eigh`` is imported into five modules,
``op_norm`` into eight), then patches the class methods in ``METHODS``
and ``HermitianMatrix.spectrum``.  ``Tracer.uninstall`` puts every
original back.  Nothing under ``src/`` is edited.

A span is the tuple ``(name, start, end, parent, op, dim)``.  Spans stay
in memory until the pass ends; ``summarize`` derives counts, total and
self times from them and ``save`` writes them out.  A span is not opened
when the innermost open span has the same name, so a sampler calling
another sampler, for instance, counts once.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# module -> {attribute: span name}
FUNCTIONS = {
    "chi2lab.linalg": {
        "jacobi_eigh": "linalg.jacobi_eigh",
        "spectral_decomposition": "linalg.spectral_decomposition",
        "op_norm": "linalg.op_norm",
    },
    "chi2lab.ensembles": {
        name: "ensembles.sample"
        for name in (
            "haar_unitary", "random_hermitian", "random_density", "random_pd",
            "random_psd", "random_nonsingular_density", "random_projection",
            "random_ensemble",
        )
    },
    "chi2lab.divergence": {
        "chi2": "divergence.chi2",
        "chi2_extended": "divergence.chi2_extended",
        "chi2_shifted": "divergence.chi2_shifted",
    },
    "chi2lab.optimize": {
        name: "optimize.run"
        for name in (
            "minimize_over_rank_one", "maximize_over_rank_one",
            "infimum_over_pd", "maximize_over_states",
        )
    },
    "chi2lab.tomography": {"quadratic_form_tomography": "tomography.run"},
    "chi2lab.peeling": {"spectral_peel": "peeling.run"},
    "chi2lab.wigner": {
        "wigner_synthesize": "wigner.synthesize",
        "check_orthogonality_preservation": "wigner.checks",
        "check_transition_probabilities": "wigner.checks",
    },
    "chi2lab.decompile": {"preserver_decompile": "decompile.run"},
    "chi2lab.properties": {"run_property_suite": "properties.suite"},
}

# (module, class, method, span name).  ComplexMatrix.__init__ is the
# dataclass constructor every validated operator runs; it calls the
# __post_init__ chain, so one span covers one validated construction.
METHODS = (
    ("chi2lab.linalg", "SpectralDecomposition", "power", "linalg.power"),
    ("chi2lab.operators", "ComplexMatrix", "__init__", "operators.validate"),
    ("chi2lab.operators", "RankOneProjection", "__init__", "operators.rank_one"),
    ("chi2lab.oracle", "DivergenceOracle", "query", "oracle.query"),
)

# spans whose queries are attributed to a reconstruction pipeline
PIPELINES = ("tomography.run", "peeling.run")


def _library_modules():
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "chi2lab" or name.startswith("chi2lab."))
    ]


def _patched_classes():
    return [
        getattr(sys.modules[mod], cls) for mod, cls, _, _ in METHODS
    ] + [sys.modules["chi2lab.operators"].HermitianMatrix]


def snapshot() -> dict:
    """Identity of every chi2lab module attribute and patched class member."""
    state = {}
    for mod in _library_modules():
        for attr, value in vars(mod).items():
            state[(mod.__name__, attr)] = id(value)
    for cls in _patched_classes():
        for attr, value in vars(cls).items():
            state[(cls.__qualname__, attr)] = id(value)
    return state


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list = []  # (span index, name) of open spans
        self._restore: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, *, with_dim: bool = False):
        """Return ``fn`` wrapped so each call records one span ``name``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            dim = len(args[0]) if with_dim else 0
            stack.append((idx, name))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op, dim)

        return traced

    def _wrap_optimizer(self, fn):
        """Optimizer entry points: also record each objective evaluation."""
        wrap = self.wrap

        def run(g, *args, **kwargs):
            return fn(wrap("optimize.objective", g), *args, **kwargs)

        return wrap("optimize.run", run)

    def _wrap_suite(self, fn):
        counters = self.counters

        def suite(*args, **kwargs):
            reports = fn(*args, **kwargs)
            counters["properties.trials"] += sum(r.trials for r in reports)
            return reports

        return self.wrap("properties.suite", suite)

    def _wrap_spectrum(self, fn):
        counters = self.counters

        def spectrum(self_):
            hit = "_spectrum" in self_.__dict__
            counters["operators.spectrum.hits" if hit else "operators.spectrum.misses"] += 1
            return fn(self_)

        return spectrum

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacement = {}
        for mod_name, attrs in FUNCTIONS.items():
            mod = sys.modules[mod_name]
            for attr, span_name in attrs.items():
                original = getattr(mod, attr)
                if span_name == "optimize.run":
                    wrapped = self._wrap_optimizer(original)
                elif span_name == "properties.suite":
                    wrapped = self._wrap_suite(original)
                else:
                    wrapped = self.wrap(
                        span_name, original,
                        with_dim=span_name == "linalg.jacobi_eigh",
                    )
                replacement[id(original)] = (original, wrapped)
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span_name, original))
        herm = sys.modules["chi2lab.operators"].HermitianMatrix
        original = herm.__dict__["spectrum"]
        self._restore.append((herm, "spectrum", original))
        herm.spectrum = self._wrap_spectrum(original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")

    def save(self, path):
        """Write the spans as arrays (names indexed into ``names``)."""
        import numpy as np

        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[n] for n in cols[0]], dtype=np.int16),
            start=np.array(cols[1], dtype=float),
            end=np.array(cols[2], dtype=float),
            parent=np.array(cols[3], dtype=np.int64),
            op=np.array(cols[4], dtype=np.int32),
            dim=np.array(cols[5], dtype=np.int16),
        )


def summarize(spans, op_scale: dict) -> dict:
    """Per span name: calls, total seconds, self seconds, and pipeline queries.

    Durations are multiplied by ``op_scale[op]``, the machine-speed factor
    of the op the span belongs to.  Self time is a span's duration minus
    the durations of its direct children.  Each ``oracle.query`` span is
    attributed to the innermost enclosing pipeline in ``PIPELINES``;
    ``per_dim`` holds the jacobi call count and total seconds per matrix
    dimension.
    """
    n = len(spans)
    durations = [(end - start) * op_scale.get(op, 1.0) for _, start, end, _, op, _ in spans]
    child = [0.0] * n
    for (_, _, _, parent, _, _), dur in zip(spans, durations):
        if parent >= 0:
            child[parent] += dur
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    per_dim: defaultdict = defaultdict(lambda: [0, 0.0])
    pipeline = [None] * n
    pipeline_queries: Counter = Counter()
    pipeline_runs: Counter = Counter()
    for i, ((name, _, _, parent, _, dim), dur) in enumerate(zip(spans, durations)):
        calls[name] += 1
        total[name] += dur
        self_time[name] += dur - child[i]
        if dim:
            per_dim[dim][0] += 1
            per_dim[dim][1] += dur
        # parents open before their children, so their slot comes first
        pipe = name if name in PIPELINES else (pipeline[parent] if parent >= 0 else None)
        pipeline[i] = pipe
        if pipe is not None:
            if name == "oracle.query":
                pipeline_queries[pipe] += 1
            elif name == "optimize.run":
                pipeline_runs[pipe] += 1
    return {
        "calls": calls,
        "total": total,
        "self": self_time,
        "per_dim": per_dim,
        "pipeline_queries": pipeline_queries,
        "pipeline_runs": pipeline_runs,
    }
