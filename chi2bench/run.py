"""Benchmark for chi2lab: one single-threaded process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 chi2bench/run.py --workload eval-fresh --seed 1 --seconds 10 --trace 0

The library is imported from ``src/`` next to this directory, and BLAS
threads are pinned to 1 before numpy loads.  A run builds the workload's
input set from the seed, warms up, then repeats whole cycles over the
input set, untraced, for about ``--seconds`` seconds, checking every
op's output.  Op latencies are rescaled to a reference machine speed
measured around each op (see ``calibrate.py``).  With ``--trace 0`` the
run prints the end-to-end metrics.  With ``--trace 1`` it then traces
one cycle, traces a second cycle on inputs rebuilt from the same seed,
fails unless their counts agree exactly, and prints the per-layer
metrics.  The last line of standard output is the JSON result; the
lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".chi2bench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
MIN_CYCLES = 2

# counts that must repeat exactly when the same seed is traced twice
EXACT_COUNTS = (
    "queries", "decompile.map_calls", "linalg.jacobi_eigh.calls",
    "operators.spectrum.hits", "operators.spectrum.misses",
    "optimize.objective_evals",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("eval-fresh", "suite", "reconstruct", "decompile"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the import and the input set, print seconds")
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import chi2lab and build the input set.

    Returns the seconds this took at the reference machine speed, measured
    right after, the workload and its inputs.
    """
    start = time.perf_counter()
    import chi2lab  # noqa: F401  (the import is part of set-up)
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    inputs = wl.build(seed)
    elapsed = time.perf_counter() - start
    from calibrate import slowdown_now

    return elapsed / slowdown_now(), wl, inputs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Pass:
    """Whole cycles over the input set: op intervals, checks and counts."""

    def __init__(self, monitor):
        self.monitor = monitor
        self.intervals: list[tuple] = []  # (input index, start, end, sampler seconds)
        self.cycle_queries: list[int] = []
        self.errors: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run_cycle(self, wl, inputs, refs, tracer=None):
        queries = 0
        for i, (inp, ref) in enumerate(zip(inputs, refs)):
            self.attempted += 1
            out = None
            sampled = self.monitor.spent
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = wl.run(inp)
                else:
                    tracer.op = i
                    out = tracer.wrap("bench.op", wl.run)(inp, tracer.wrap)
            except Exception as exc:  # an op that raises counts as failed
                print(f"op {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            end = time.perf_counter()
            self.intervals.append((i, start, end, self.monitor.spent - sampled))
            if out is None:
                self.failed += 1
                continue
            ok, err, op_queries = wl.check(inp, ref, out)
            if not ok:
                self.failed += 1
                print(f"op {i} ({inp[0]}) produced a wrong result", file=sys.stderr)
            if err is not None:
                self.errors.append(err)
            queries += op_queries
        self.cycle_queries.append(queries)

    def run_for(self, wl, inputs, refs, seconds: float):
        """Whole cycles, stopping at the cycle boundary nearest ``seconds``."""
        begin = time.perf_counter()
        while True:
            self.run_cycle(wl, inputs, refs)
            spent = time.perf_counter() - begin
            cycles = len(self.cycle_queries)
            if cycles >= MIN_CYCLES and spent + 0.5 * spent / cycles >= seconds:
                return

    def latencies(self) -> list[tuple]:
        """Per op: (input index, seconds, seconds at reference speed, slowdown)."""
        out = []
        for i, start, end, sampled in self.intervals:
            slowdown = self.monitor.slowdown(start, end)
            seconds = end - start - sampled
            out.append((i, seconds, seconds / slowdown, slowdown))
        return out

    def per_input(self) -> list[float]:
        """Median latency at reference speed of each input of the set."""
        groups: dict[int, list] = {}
        for i, _, scaled, _ in self.latencies():
            groups.setdefault(i, []).append(scaled)
        return [statistics.median(v) for _, v in sorted(groups.items())]


def accuracy_digits(errors) -> float:
    return min(-math.log10(max(e, 1e-16)) for e in errors)


def end_to_end(timed: Pass, setup_s: float):
    per_input = timed.per_input()
    ops = timed.latencies()
    scaled_ms = [scaled * 1e3 for _, _, scaled, _ in ops]
    metrics = {
        "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
        "op_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "accuracy_digits": (accuracy_digits(timed.errors), "digits"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # table only: undefined on some workloads, zero on the seed code, or diagnostics
    p90 = statistics.quantiles(scaled_ms, n=10)[-1] if len(scaled_ms) >= 100 else None
    extra = [
        ("op_p90_ms", p90, "ms"),
        ("queries", timed.cycle_queries[0] or None, "count per cycle"),
        ("failed_frac", timed.failed / timed.attempted, "ratio"),
        ("raw_op_p50_ms", statistics.median(s for _, s, _, _ in ops) * 1e3, "ms, not rescaled"),
        ("machine_slowdown", statistics.median(slow for _, _, _, slow in ops), "x reference"),
        ("ops", len(ops), "count"),
        ("cycles", len(timed.cycle_queries), f"of {len(per_input)} ops"),
    ]
    return metrics, extra


def per_layer(tracer, traced: Pass, timed: Pass):
    from tracer import summarize

    ops = traced.latencies()
    s = summarize(tracer.spans, {i: 1.0 / slow for i, _, _, slow in ops})
    calls, total, self_t = s["calls"], s["total"], s["self"]

    def ms(name):
        return total[name] * 1e3

    def self_ms(name):
        return self_t[name] * 1e3

    hits = tracer.counters["operators.spectrum.hits"]
    misses = tracer.counters["operators.spectrum.misses"]
    peel_q = s["pipeline_queries"]["peeling.run"]
    peel_dirs = s["pipeline_runs"]["peeling.run"]
    untraced_s = sum(timed.per_input())
    traced_s = sum(scaled for _, _, scaled, _ in ops)
    m = {
        "linalg.jacobi_eigh.calls": (calls["linalg.jacobi_eigh"], "count"),
        "linalg.jacobi_eigh.ms": (ms("linalg.jacobi_eigh"), "ms"),
    }
    for d in (4, 6, 8, 16):
        n, secs = s["per_dim"].get(d, (0, 0.0))
        m[f"linalg.jacobi_eigh.us_per_call.d{d}"] = (secs / n * 1e6 if n else 0.0, "us")
    m.update({
        "linalg.spectral_decomposition.calls": (calls["linalg.spectral_decomposition"], "count"),
        "linalg.spectral_decomposition.self_ms": (self_ms("linalg.spectral_decomposition"), "ms"),
        "linalg.op_norm.calls": (calls["linalg.op_norm"], "count"),
        "linalg.op_norm.self_ms": (self_ms("linalg.op_norm"), "ms"),
        "linalg.power.calls": (calls["linalg.power"], "count"),
        "linalg.power.ms": (ms("linalg.power"), "ms"),
        "operators.validate.calls": (calls["operators.validate"], "count"),
        "operators.validate.self_ms": (self_ms("operators.validate"), "ms"),
        "operators.spectrum.hits": (hits, "count"),
        "operators.spectrum.misses": (misses, "count"),
        "operators.spectrum.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "operators.rank_one.calls": (calls["operators.rank_one"], "count"),
        "operators.rank_one.ms": (ms("operators.rank_one"), "ms"),
        "ensembles.sample.calls": (calls["ensembles.sample"], "count"),
        "ensembles.sample.ms": (ms("ensembles.sample"), "ms"),
        "divergence.chi2.calls": (calls["divergence.chi2"], "count"),
        "divergence.chi2.self_ms": (self_ms("divergence.chi2"), "ms"),
        "divergence.chi2_extended.calls": (calls["divergence.chi2_extended"], "count"),
        "divergence.chi2_extended.self_ms": (self_ms("divergence.chi2_extended"), "ms"),
        "divergence.chi2_shifted.calls": (calls["divergence.chi2_shifted"], "count"),
        "divergence.chi2_shifted.self_ms": (self_ms("divergence.chi2_shifted"), "ms"),
        "oracle.queries": (calls["oracle.query"], "count"),
        "oracle.self_ms": (self_ms("oracle.query"), "ms"),
        "optimize.runs": (calls["optimize.run"], "count"),
        "optimize.objective_evals": (calls["optimize.objective"], "count"),
        "optimize.self_ms": (self_ms("optimize.run"), "ms"),
        "tomography.queries": (s["pipeline_queries"]["tomography.run"], "count"),
        "tomography.ms": (ms("tomography.run"), "ms"),
        "peeling.queries": (peel_q, "count"),
        "peeling.ms": (ms("peeling.run"), "ms"),
        "peeling.queries_per_direction": (peel_q / peel_dirs if peel_dirs else 0.0, "count"),
        "wigner.synthesize.calls": (calls["wigner.synthesize"], "count"),
        "wigner.synthesize.self_ms": (self_ms("wigner.synthesize"), "ms"),
        "wigner.checks.self_ms": (self_ms("wigner.checks"), "ms"),
        "decompile.map_calls": (calls["decompile.map"], "count"),
        "decompile.self_ms": (self_ms("decompile.run"), "ms"),
        "properties.trials": (tracer.counters["properties.trials"], "count"),
        "properties.suite.ms": (ms("properties.suite"), "ms"),
        "queries": (calls["oracle.query"] + calls["decompile.map"], "count"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return m, s


def layer_shares(summary) -> list[str]:
    """Self time per module, and jacobi_eigh's total, as shares of the traced cycle."""
    traced_s = summary["total"]["bench.op"]
    by_module: dict[str, float] = {}
    for name, secs in summary["self"].items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + secs
    lines = [f"  self time per module, share of the traced cycle ({traced_s:.3f} s):"]
    for module, secs in sorted(by_module.items(), key=lambda kv: -kv[1]):
        if secs / traced_s >= 0.0005:
            lines.append(f"    {module:<12} {secs / traced_s:7.1%}")
    jacobi = summary["total"].get("linalg.jacobi_eigh", 0.0)
    lines.append(f"    (jacobi_eigh, total time: {jacobi / traced_s:.1%})")
    return lines


def traced_cycle(wl, inputs, refs, monitor):
    from tracer import Tracer

    tracer = Tracer()
    traced = Pass(monitor)
    tracer.install()
    try:
        traced.run_cycle(wl, inputs, refs, tracer)
    finally:
        tracer.uninstall()
    return tracer, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "chi2lab" / "__init__.py").is_file():
        print(f"chi2lab sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    setup_s, wl, inputs = setup(args.workload, args.seed)
    import chi2lab

    if Path(chi2lab.__file__).resolve().parent != (SRC / "chi2lab").resolve():
        print(f"chi2lab imported from {chi2lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import tracer as tracing
    from calibrate import SpeedMonitor

    if not args.trace:
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    refs = [wl.reference(inp) for inp in inputs]
    before = tracing.snapshot()
    with SpeedMonitor() as monitor:
        wl.warmup(inputs)
        timed = Pass(monitor)
        timed.run_for(wl, inputs, refs, args.seconds)
        patched = tracing.snapshot() != before
        if args.trace:
            tracer, traced = traced_cycle(wl, inputs, refs, monitor)
            restored = tracing.snapshot() == before
            # the same seed again, inputs rebuilt from scratch: counts must repeat
            _, _, inputs2 = setup(args.workload, args.seed)
            tracer2, traced2 = traced_cycle(wl, inputs2, refs, monitor)
    problems = []
    if patched:
        problems.append("the untraced pass changed a chi2lab attribute")
    if len(set(timed.cycle_queries)) != 1:
        problems.append(f"queries differ between untraced cycles: {timed.cycle_queries}")
    attempted, failed = timed.attempted, timed.failed
    lines = [f"workload {wl.name}  seed {args.seed}  input set {len(inputs)} ops  "
             f"BLAS threads pinned to 1"]

    if args.trace:
        if not restored:
            problems.append("the traced pass left a chi2lab attribute patched")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{wl.name}.npz"
        tracer.save(spans_path)
        metrics, summary = per_layer(tracer, traced, timed)
        metrics2, _ = per_layer(tracer2, traced2, timed)
        mismatched = [k for k in EXACT_COUNTS if metrics[k][0] != metrics2[k][0]]
        for k in mismatched:
            problems.append(f"{k}: {metrics[k][0]} then {metrics2[k][0]} on the same seed")
        if metrics["queries"][0] != timed.cycle_queries[0]:
            problems.append(f"traced queries {metrics['queries'][0]} != untraced {timed.cycle_queries[0]}")
        attempted += traced.attempted + traced2.attempted
        failed += traced.failed + traced2.failed
        lines.append(f"per-layer metrics over one traced cycle; spans saved to {spans_path}")
        lines += layer_shares(summary)
        lines.append("  exact counts repeat on a second traced cycle: "
                     + ("no, " + ", ".join(mismatched) if mismatched else "yes"))
        extra = []
    else:
        metrics, extra = end_to_end(timed, statistics.median(setup_samples))
        lines.append("end-to-end metrics of the untraced pass")
        lines.append("  setup samples (s): " + ", ".join(f"{x:.4f}" for x in setup_samples))

    for name, (value, unit) in list(metrics.items()) + [(n, (v, u)) for n, v, u in extra]:
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<40} {shown:>14} {unit}")
    lines.append("  chi2lab attributes patched during the untraced pass: "
                 + ("some" if patched else "none"))
    for p in problems:
        print(f"self-check failed: {p}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
