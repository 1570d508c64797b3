"""Command-line interface: the subcommands bound, mfcq, scan, esqm,
homotopy, and catalog.  Problem documents are parsed by
``model.parse_problem``.

Exit codes: 0 success, 1 the analysis ran and found qualification failures
(or a run that did not converge), 2 usage or input errors, including an
unreadable or unwritable file.  All JSON output is strict: a non-finite
number is written as null.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .esqm import EsqmParams, estimate_lipschitz, homotopy_run, run_esqm
from .model import (
    CATALOG_FAMILIES,
    DocumentError,
    PerturbationSpec,
    ProblemInstance,
    _parse_poly,
    catalog,
    parse_problem,
)
from .poly import Polynomial
from .qualification import (
    FAILS,
    HOLDS,
    SweepConfig,
    check_mfcq_hull,
    check_mfcq_lp,
    sweep_mfcq,
    write_sweep_csv,
)
from .scanner import milnor_thom_bound, scan_singular

__all__ = ["parse_problem", "main"]


# ---------------------------------------------------------------------------
# flag helpers
# ---------------------------------------------------------------------------


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _load_problem(args) -> ProblemInstance:
    if args.file:
        return parse_problem(args.file)
    if not args.problem:
        raise DocumentError("either --problem (catalog family) or --file is required")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.d is not None:
        params["d"] = args.d
    if args.a is not None:
        params["a"] = args.a
    return catalog(args.problem, **params)


def _add_problem_flags(parser) -> None:
    parser.add_argument("--problem", help=f"catalog family, one of {', '.join(CATALOG_FAMILIES)}")
    parser.add_argument("--file", help="path to a problem document (JSON)")
    parser.add_argument("--n", type=int, help="dimension parameter for ball_box/grid_boxes")
    parser.add_argument("--d", type=int, help="grid depth for grid_boxes (even, >= 2)")
    parser.add_argument("--a", type=_floats, help="center vector, comma-separated")


def _objective_from_args(args, prob: ProblemInstance) -> Polynomial | None:
    if getattr(args, "objective_linear", None) is not None:
        coefs = args.objective_linear
        if len(coefs) != prob.num_vars:
            raise DocumentError(
                f"--objective-linear has {len(coefs)} coefficients, expected {prob.num_vars}"
            )
        out = Polynomial.zero(prob.num_vars)
        for i, c in enumerate(coefs):
            out = out + c * Polynomial.variable(prob.num_vars, i)
        return out
    if getattr(args, "objective", None) is not None:
        try:
            data = json.loads(args.objective)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"--objective: malformed JSON: {exc}") from exc
        return _parse_poly(data, prob.num_vars, "--objective")
    return prob.objective


def _strict(value):
    """`value` with every non-finite float replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _json(payload) -> str:
    """Indented strict JSON: a non-finite number is written as null."""
    return json.dumps(_strict(payload), indent=2)


def _save(payload, path) -> None:
    with open(path, "w") as fh:
        fh.write(_json(payload))


def _emit(payload: dict, args, text_lines) -> None:
    if args.out:
        _save(payload, args.out)
    if args.format == "json":
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bound(args) -> int:
    value = milnor_thom_bound(args.n, args.m, args.d, args.r)
    payload = {"n": args.n, "m": args.m, "d": args.d, "r": args.r, "bound": value}
    _emit(payload, args, [str(value)])
    return 0


def _cmd_mfcq(args) -> int:
    prob = _load_problem(args)
    pert = (
        PerturbationSpec.vector(args.mu)
        if args.mu is not None
        else PerturbationSpec.diagonal(args.alpha)
    )
    if args.point is not None:
        if args.format == "csv":
            raise ValueError("--format csv writes sweep rows; it does not apply to --point")
        check = check_mfcq_hull if args.method == "hull" else check_mfcq_lp
        cert = check(prob, pert, np.array(args.point))
        payload = {
            "verdict": cert.verdict,
            "active_indices": list(cert.active.indices),
            "margin": cert.margin,
            "hull_distance": cert.hull_distance,
            "direction": list(cert.direction) if cert.direction else None,
            "multipliers": list(cert.multipliers) if cert.multipliers else None,
        }
        _emit(payload, args, [f"verdict: {cert.verdict}"])
        return 1 if cert.verdict != HOLDS else 0

    if args.method == "hull":
        raise ValueError("--method hull applies to --point; a sweep certifies with the LP")
    config = SweepConfig(samples=args.samples, seed=args.seed)
    result = sweep_mfcq(prob, pert, config)
    counts = result.verdicts
    payload = {
        "status": result.status,
        "samples": len(result.rows),
        "seed": args.seed,
        "verdicts": counts,
        "worst_margin": result.worst_margin,
        "stats": dataclasses.asdict(result.stats),
    }
    lines = [
        f"sweep status: {result.status} (seed {args.seed})",
        f"holds={counts[HOLDS]} fails={counts[FAILS]} degenerate={counts['degenerate']}",
    ]
    if args.format == "csv":
        write_sweep_csv(result, args.out)
        print(f"wrote {args.out}")
        for line in lines:
            print(line)
    else:
        _emit(payload, args, lines)
    if result.status != "ok":
        return 2
    return 0 if result.all_hold else 1


def _cmd_scan(args) -> int:
    prob = _load_problem(args)
    report = scan_singular(prob, args.window, args.starts, args.seed)
    lines = [
        f"problem: {report.problem}  window: {report.window}  seed: {report.seed}",
        f"singular levels ({len(report.singular_values)}, bound {report.bound}):",
        *[f"  alpha = {w.alpha:.9f}  (K={list(w.K)}, L={list(w.L)})" for w in report.singular_values],
    ]
    if args.format == "csv":
        report.write_csv(args.out)
        for line in lines:
            print(line)
    else:
        _emit(report.to_json_dict(), args, lines)
    return 0


def _esqm_params(args, prob, alpha: float) -> EsqmParams:
    """Solver parameters from the CLI flags, curvatures from sampled Hessians."""
    L_obj, L_con = estimate_lipschitz(prob, seed=args.seed)
    return EsqmParams(
        alpha=alpha,
        beta0=args.beta0,
        delta=args.delta,
        curvature_obj=max(L_obj, 1e-6),
        curvature_con=max(max(L_con, default=0.0), 1e-6),
        max_iter=args.max_iter,
    )


def _cmd_esqm(args) -> int:
    prob = _load_problem(args)
    f = _objective_from_args(args, prob)
    if f is None:
        raise DocumentError("an objective is required (--objective or --objective-linear)")
    params = _esqm_params(args, prob, args.alpha)
    x0 = np.array(args.x0) if args.x0 is not None else prob.box_array().mean(axis=1)
    trace = run_esqm(prob, f, x0, params)
    if args.out:
        if args.format == "csv":
            trace.write_csv(args.out, alpha=args.alpha)
        else:
            _save(trace.to_json_dict(), args.out)
    xf = trace.x_final
    payload = {
        "converged": trace.converged,
        "termination": trace.termination,
        "x": list(map(float, xf)),
        "value": trace.objectives[-1],
        "iterations": len(trace.xs) - 1,
        "final_beta": trace.betas[-1],
        "final_kkt_residual": trace.kkt_residuals[-1],
        "seed": args.seed,
    }
    if args.format == "json":
        print(_json(payload))
    else:
        print(
            f"{trace.termination}: x = {np.array2string(xf, precision=8)}, "
            f"value = {payload['value']:.10g}, kkt = {payload['final_kkt_residual']:.2e}"
        )
    return 0 if trace.converged else 1


def _cmd_homotopy(args) -> int:
    prob = _load_problem(args)
    f = _objective_from_args(args, prob)
    if f is None:
        raise DocumentError("an objective is required (--objective or --objective-linear)")
    trace = homotopy_run(prob, f, args.schedule, _esqm_params(args, prob, args.schedule[0]))
    payload = trace.to_json_dict()
    payload["seed"] = args.seed
    lines = [
        f"alpha = {lvl.alpha:.6g}: value = {lvl.value:.10g} ({lvl.status})"
        for lvl in trace.levels
    ]
    _emit(payload, args, lines)
    return 0 if all(lvl.status == "converged" for lvl in trace.levels) else 1


def _cmd_catalog(args) -> int:
    prob = _load_problem(args)
    doc = prob.to_document()
    if args.out:
        _save(doc, args.out)
    print(_json(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbcq",
        description=(
            "Qualification analysis of perturbed polynomial constraint sets: "
            "pointwise certificates, singular-level scans, degree bounds, and "
            "a penalized SQP solver with a homotopy driver."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="degree-based bound on the number of singular levels")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=0)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("mfcq", help="certify the qualification condition at a point or on a boundary sweep")
    _add_problem_flags(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--mu", type=_floats, help="full bound vector (overrides --alpha)")
    p.add_argument("--point", type=_floats, help="check a single point instead of sweeping")
    p.add_argument("--method", choices=["lp", "hull"], default="lp")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mfcq)

    p = sub.add_parser("scan", help="enumerate singular perturbation levels in a window")
    _add_problem_flags(p)
    p.add_argument("--window", type=_floats, required=True, help="lo,hi")
    p.add_argument("--starts", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_scan)

    for name, help_text in (
        ("esqm", "solve one perturbed problem with the penalized SQP iteration"),
        ("homotopy", "track the optimal value along a decreasing level schedule"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_problem_flags(p)
        p.add_argument("--objective", help="objective as a polynomial JSON fragment")
        p.add_argument("--objective-linear", type=_floats, help="linear objective coefficients")
        p.add_argument("--beta0", type=float, default=1.0)
        p.add_argument("--delta", type=float, default=1.0)
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--seed", type=int, default=0)
        if name == "esqm":
            p.add_argument("--alpha", type=float, required=True)
            p.add_argument("--x0", type=_floats, help="starting point")
            p.set_defaults(func=_cmd_esqm)
        else:
            p.add_argument("--schedule", type=_floats, required=True,
                           help="strictly decreasing levels, comma-separated")
            p.set_defaults(func=_cmd_homotopy)

    p = sub.add_parser("catalog", help="emit a built-in problem document")
    _add_problem_flags(p)
    p.set_defaults(func=_cmd_catalog)

    for name, p in sub.choices.items():
        formats = ["json", "csv", "text"] if name in ("mfcq", "scan", "esqm") else ["json", "text"]
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write the full report to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "csv" and not args.out:
            raise ValueError("--format csv is written only to a file; add --out PATH")
        return args.func(args)
    except (DocumentError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
