"""Command-line front end.

Subcommands: divergence, suite, demo, distinguish, tomography, peel,
decompile.  Matrices travel as matrix JSON files; reports print as text
by default and as JSON with --json.  The subcommands that read numerical
tolerances (divergence, tomography, peel) take repeatable
--tol NAME=VALUE overrides, parsed once before the handler runs.  Exit
codes: 0 success, 1 check or invariant failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .comparisons import (
    SQUARED_RATIO_LOSS,
    bregman_divergence,
    f_divergence,
    jensen_divergence,
)
from .config import DEFAULT_TOL, Tolerances
from .decompile import preserver_decompile
from .demos import (
    SECOND_VARIABLE_NOTE,
    demo_first_variable_discontinuity,
    demo_second_variable_discontinuity,
)
from .distinguishers import (
    distinguish_from_bregman,
    distinguish_from_f_divergence,
    distinguish_from_jensen,
)
from .divergence import chi2_extended
from .errors import Chi2LabError, MatrixFormatError
from .linalg import op_norm
from .matio import load_matrix, matrix_to_obj
from .operators import PdOperator, PsdOperator, eigh
from .oracle import chi2_oracle, rank_one_query_oracle
from .peeling import spectral_peel
from .properties import render_text, reports_to_obj, run_property_suite
from .tomography import quadratic_form_tomography
from .wigner import ANTIUNITARY, UNITARY, ConjugationMap

USAGE_ERROR = 2
CHECK_FAILURE = 1

DEFAULT_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DEFAULT_DIMS = (2, 3, 4)


def _default_seed() -> int:
    raw = os.environ.get("CHI2LAB_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"CHI2LAB_SEED must be an integer, got {raw!r}") from None


def _parse_tolerances(pairs) -> Tolerances:
    if not pairs:
        return DEFAULT_TOL
    names = {f.name for f in dataclasses.fields(Tolerances)}
    overrides = {}
    for item in pairs:
        try:
            name, raw = item.split("=", 1)
            overrides[name] = int(raw) if name == "jacobi_sweeps" else float(raw)
        except ValueError:
            raise ValueError(f"bad tolerance override {item!r}; use NAME=VALUE")
        if name not in names:
            raise ValueError(
                f"unknown tolerance {name!r}; choose from {sorted(names)}"
            )
    return dataclasses.replace(DEFAULT_TOL, **overrides)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit(args, obj: dict, text: str) -> None:
    payload = json.dumps(obj, indent=2) + "\n" if args.json else text + "\n"
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def cmd_divergence(args) -> int:
    tol = args.tol
    a_mat = load_matrix(args.a)
    b_mat = load_matrix(args.b)
    if args.kind == "chi2":
        value = chi2_extended(PsdOperator(a_mat, tol), PsdOperator(b_mat, tol), args.alpha)
        out = str(value) if value.is_infinite else _fmt(value.value)
        _emit(args, {"kind": args.kind, "alpha": args.alpha, "value": out}, out)
        return 0
    if args.kind == "f":
        v = f_divergence(PsdOperator(a_mat, tol), PsdOperator(b_mat, tol), SQUARED_RATIO_LOSS)
    elif args.kind == "bregman":
        v = bregman_divergence(PdOperator(a_mat, tol), PdOperator(b_mat, tol), SQUARED_RATIO_LOSS)
    else:
        v = jensen_divergence(PsdOperator(a_mat, tol), PsdOperator(b_mat, tol), SQUARED_RATIO_LOSS)
    _emit(args, {"kind": args.kind, "value": v}, _fmt(v))
    return 0


def cmd_suite(args) -> int:
    reports = run_property_suite(args.alpha, args.dim, args.trials, args.seed)
    _emit(args, reports_to_obj(reports), render_text(reports))
    return 0 if all(r.ok for r in reports) else CHECK_FAILURE


def cmd_demo(args) -> int:
    if args.which == "first-var":
        rows = demo_first_variable_discontinuity(args.alpha, args.n_max)
        obj = {"which": "first-var", "rows": [dataclasses.asdict(r) for r in rows]}
        lines = [f"{'n':>4} {'supp(A_n) in supp(P)':>22} {'extended':>9} "
                 f"{'probe at 1e-7':>14} {'at the limit':>13}"]
        for r in rows:
            lines.append(
                f"{r.n:>4d} {str(r.support_contained):>22} {r.extended_value:>9} "
                f"{r.probe_value:>14.6g} {r.limit_point_value:>13.6g}"
            )
        _emit(args, obj, "\n".join(lines))
        return 0
    rows = demo_second_variable_discontinuity(args.n_max)
    ok = all(r.ok for r in rows)
    obj = {
        "which": "second-var",
        "note": SECOND_VARIABLE_NOTE,
        "rows": [dataclasses.asdict(r) for r in rows],
        "all_match": ok,
    }
    lines = [f"{'n':>4} {'numeric':>14} {'closed form':>14} "
             f"{'rel err':>10} {'||B_n - P||':>12}"]
    for r in rows:
        lines.append(
            f"{r.n:>4d} {r.numeric:>14.6f} {r.closed_form:>14.6f} "
            f"{r.relative_error:>10.2e} {r.distance_to_limit:>12.4g}"
        )
    lines.append(SECOND_VARIABLE_NOTE)
    _emit(args, obj, "\n".join(lines))
    return 0 if ok else CHECK_FAILURE


def cmd_distinguish(args) -> int:
    if args.which == "f":
        report = distinguish_from_f_divergence(args.alpha, args.dim, args.budget, args.seed)
        ok = report.equality or report.witness is not None
        text = (
            f"f-divergence vs order {report.alpha} at d={report.dim}: "
            + (
                f"equal (max residual {report.max_residual:.3e})"
                if report.equality
                else (
                    f"witness gap {report.witness['gap']:.4f} "
                    f"after {report.samples_used} samples"
                    if report.witness
                    else f"no witness found in {report.samples_used} samples"
                )
            )
        )
        _emit(args, report.to_obj(), text)
        return 0 if ok else CHECK_FAILURE
    if args.which == "bregman":
        report = distinguish_from_bregman(args.alpha, args.probe_t, d=args.dim)
        text = (
            f"scalar restriction on grid {report.s_grid}: quadratic fit residual "
            f"{report.fit_residual:.4f} (control {report.control_residual:.1e})"
        )
        _emit(args, report.to_obj(), text)
        return 0 if report.non_quadratic else CHECK_FAILURE
    report = distinguish_from_jensen(args.alpha, args.dim)
    text = (
        f"asymmetry witness: forward {_fmt(report.forward)}, "
        f"backward {_fmt(report.backward)}, gap {_fmt(report.gap)}; "
        f"jensen gap {_fmt(report.jensen_gap)}"
    )
    _emit(args, report.to_obj(), text)
    return 0 if report.gap >= 0.1 else CHECK_FAILURE


def cmd_tomography(args) -> int:
    hidden = PsdOperator(load_matrix(args.hidden), args.tol)
    oracle = chi2_oracle(hidden, args.alpha, noise_sigma=args.noise, seed=args.seed)
    recovered = quadratic_form_tomography(oracle, hidden.dim, args.alpha, args.tol)
    drift = op_norm(recovered.mat - hidden.mat)
    obj = {
        "recovered": matrix_to_obj(recovered.mat),
        "queries": oracle.count,
        "recovery_error": drift,
    }
    text = (
        f"recovered {hidden.dim}x{hidden.dim} operator in {oracle.count} queries; "
        f"||recovered - hidden||_op = {drift:.3e}"
    )
    _emit(args, obj, text)
    return 0


def cmd_peel(args) -> int:
    hidden = PdOperator(load_matrix(args.hidden), args.tol)
    oracle = rank_one_query_oracle(hidden, args.alpha, noise_sigma=args.noise, seed=args.seed)
    spec = spectral_peel(oracle, hidden.dim, args.alpha, args.tol)
    reference = eigh(hidden)
    drift = op_norm(spec.reassemble() - hidden.mat)
    obj = {
        "eigenvalues": list(spec.eigenvalues),
        "multiplicities": list(spec.multiplicities),
        "reference_eigenvalues": list(reference.eigenvalues),
        "queries": oracle.count,
        "reassembly_error": drift,
    }
    pairs = ", ".join(
        f"{lam:.8g} (x{m})" for lam, m in zip(spec.eigenvalues, spec.multiplicities)
    )
    text = (
        f"peeled spectrum: {pairs}\nqueries: {oracle.count}; "
        f"reassembly error {drift:.3e}"
    )
    _emit(args, obj, text)
    return 0


def _build_map(spec: str, dim: int | None):
    if spec == "identity":
        if dim is None:
            raise ValueError("--dim is required for the identity map")
        return ConjugationMap(np.eye(dim), UNITARY), dim
    try:
        kind, path = spec.split(":", 1)
    except ValueError:
        raise ValueError(f"bad map spec {spec!r}; use identity|unitary:PATH|antiunitary:PATH")
    if kind not in (UNITARY, ANTIUNITARY):
        raise ValueError(f"unknown map kind {kind!r}")
    u = load_matrix(path)
    return ConjugationMap(u, kind), u.shape[0]


def cmd_decompile(args) -> int:
    conj, dim = _build_map(args.map, args.dim)
    if args.dim is not None and args.dim != dim:
        raise ValueError(f"--dim {args.dim} conflicts with the supplied matrix ({dim})")
    report = preserver_decompile(conj.as_preserver(), dim, args.alpha, seed=args.seed)
    text_lines = [
        f"recovered kind: {report.recovered.kind}",
        f"trace residual:        {report.trace_preservation_residual:.3e}",
        f"orthogonality residual:{report.orthogonality_residual:.3e} "
        f"({'pass' if report.orthogonality_pass else 'FAIL'})",
        f"transition residual:   {report.transition_residual:.3e}",
        f"scale consistency:     {report.scale_consistency_residual:.3e}",
        f"verification residual: {report.verification_residual:.3e}",
        f"queries: {report.query_count} ("
        + ", ".join(f"{stage} {n}" for stage, n in report.stage_queries.items()) + ")",
    ]
    if report.failures:
        text_lines.append("failed stages: " + ", ".join(report.failures))
    _emit(args, report.to_obj(), "\n".join(text_lines))
    return 0 if report.ok else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chi2lab",
        description="chi-squared divergence toolkit: divergences, property "
        "suites, counterexample demos, and reconstruction pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol: bool = False):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--output", help="write the report to a file instead of stdout")
        if tol:
            p.add_argument(
                "--tol",
                action="append",
                metavar="NAME=VALUE",
                help="override a numerical tolerance (repeatable)",
            )

    p = sub.add_parser("divergence", help="divergence between two matrix JSON files")
    p.add_argument("a", help="first operator (matrix JSON)")
    p.add_argument("b", help="second operator (matrix JSON)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kind", choices=("chi2", "f", "bregman", "jensen"), default="chi2")
    add_common(p, tol=True)
    p.set_defaults(fn=cmd_divergence)

    p = sub.add_parser("suite", help="run the randomized property suite")
    p.add_argument("--alpha", type=float, action="append", default=None)
    p.add_argument("--dim", type=int, action="append", default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("demo", help="discontinuity counterexample tables")
    p.add_argument("--which", choices=("first-var", "second-var"), required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.5)
    add_common(p)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("distinguish", help="separate the family from comparison divergences")
    p.add_argument("--which", choices=("f", "bregman", "jensen"), required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--probe-t", type=float, default=2.0)
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(fn=cmd_distinguish)

    p = sub.add_parser("tomography", help="recover a hidden operator from divergence queries")
    p.add_argument("--hidden", required=True, help="hidden PSD operator (matrix JSON)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    add_common(p, tol=True)
    p.set_defaults(fn=cmd_tomography)

    p = sub.add_parser("peel", help="recover a spectrum from rank-one queries")
    p.add_argument("--hidden", required=True, help="hidden PD operator (matrix JSON)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    add_common(p, tol=True)
    p.set_defaults(fn=cmd_peel)

    p = sub.add_parser("decompile", help="decompile a divergence-preserving map")
    p.add_argument("--map", required=True,
                   help="identity | unitary:PATH | antiunitary:PATH")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(fn=cmd_decompile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        _validate_args(args)
        return args.fn(args)
    except (MatrixFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Chi2LabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILURE


def _validate_args(args) -> None:
    if hasattr(args, "tol"):
        args.tol = _parse_tolerances(args.tol)
    # without --seed, CHI2LAB_SEED (default 0) seeds the run
    if hasattr(args, "seed") and args.seed is None:
        args.seed = _default_seed()
    if args.command == "suite":
        if args.trials < 1:
            raise ValueError("--trials must be at least 1")
        args.alpha = tuple(args.alpha) if args.alpha else DEFAULT_ALPHAS
        args.dim = tuple(args.dim) if args.dim else DEFAULT_DIMS
    if args.command == "demo" and args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    if args.command == "distinguish" and args.budget < 1:
        raise ValueError("--budget must be at least 1")
    if getattr(args, "alpha", None) is not None and isinstance(args.alpha, float):
        if not 0.0 <= args.alpha <= 1.0:
            raise ValueError(f"--alpha must lie in [0, 1], got {args.alpha}")


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
