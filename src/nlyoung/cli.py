"""Command line interface.

Subcommands: integrate, young, bounds, indefinite, iterate, suite, holder,
frac.  Exit codes: 0 all declared tolerances pass, 1 a tolerance failed,
2 spec/argument validation failed or an input file is missing, 3 a
refinement did not converge.
Reports are JSON (and CSV tables for the bound studies); --no-timestamp
removes the timing fields at every depth so identical runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments as xp
from .fields import Regularity, holder_seminorm_field, make_field
from .fraccalc import frac_integral_left, frac_integral_right, weyl_left, weyl_right
from .iterated import JointField, growth_check, iterated_integral
from .nonlinear import indefinite_integral
from .paths import _split_top_level, holder_seminorm_path, make_function, write_path_csv
from .quadrature import QuadratureConfig
from .young import young_integral

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGED = 3


def _emit(args, payload: dict, filename: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        xp.atomic_write_text(Path(args.out) / filename, text)
    print(text)


def _verdict(report: xp.RunReport) -> int:
    if report.nonconverged:
        return EXIT_NONCONVERGED
    return EXIT_OK if report.passed else EXIT_TOLERANCE


def _quad(args) -> QuadratureConfig:
    return xp.build_config(xp.parse_quad_fragment(args.quad or ""))


def _require(args, command: str, *flags: str) -> None:
    for flag in flags:
        if getattr(args, flag) is None:
            raise xp.SpecValidationError(f"{command} needs --{flag}")


def _spec(args, name: str, path: str, **extra) -> xp.ExperimentSpec:
    """The experiment spec of a subcommand's medium, exponents and interval."""
    return xp.ExperimentSpec(
        name=name, field=args.field, path=path,
        tau=args.tau, lam=getattr(args, "lambda"), gamma=args.gamma, a=args.a, b=args.b,
        alpha=args.alpha, quad=xp.parse_quad_fragment(args.quad or ""), **extra,
    )


def cmd_integrate(args) -> int:
    spec = _spec(
        args, args.name, args.path,
        methods=("fractional", "sewing") if args.method == "both" else ({"frac": "fractional"}.get(args.method, args.method),),
        tolerances=json.loads(args.tolerances) if args.tolerances else {},
    )
    report = xp.run(spec)
    _emit(args, report.to_json_dict(not args.no_timestamp), f"{spec.name}.json")
    return _verdict(report)


def cmd_young(args) -> int:
    f = xp.load_path(args.f)
    g = xp.load_path(args.g)
    res = young_integral(f, g, args.alpha_f, args.beta_g, args.a, args.b, args.gamma, _quad(args))
    payload = {
        "value": res.value,
        "gamma_used": res.gamma_used,
        "error_estimate": res.error_estimate,
        "bound_ratio": res.bound_ratio,
        "converged": res.converged,
    }
    _emit(args, payload, "young.json")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def cmd_bounds(args) -> int:
    spec = _spec(args, f"bounds-{args.check}", args.path or "identity")
    rows: list[dict] = []
    if args.check == "centered":
        report, rows = xp.centered_bound_study(spec, j_max=args.jmax)
    elif args.check == "refined":
        report, rows = xp.refined_bound_study(
            spec, ell=args.ell, big_l=args.big_l, j_max=args.jmax,
            negative_beta=args.beta_target,
        )
    elif args.check == "holder":
        report = xp.run(replace(spec, methods=("fractional",)))
        frac = report.reports["fractional"]
        rows = [{"j": 0, "interval": args.b - args.a, "lhs": frac["value"],
                 "ratio": frac["bound_ratios"].get("holder", 0.0)}]
    elif args.check == "stability-w":
        _require(args, "bounds --check stability-w", "field2", "path")
        w1 = make_field(args.field)
        w2 = make_field(args.field2)
        phi = xp.load_path(args.path)
        reg = Regularity(args.tau, getattr(args, "lambda"), args.gamma, args.alpha)
        chk, ratio, check = xp.medium_stability(w1, w2, phi, reg, args.a, args.b, _quad(args))
        rows = [{"j": 0, "interval": args.b - args.a, "lhs": chk.lhs,
                 "term1": chk.term1, "term2": chk.term2, "ratio": ratio}]
        report = xp.RunReport(spec.name, spec.to_json_dict(), comparisons=rows[0],
                              checks=[check])
    elif args.check == "stability-phi":
        _require(args, "bounds --check stability-phi", "path", "path2")
        w1 = make_field(args.field)
        phi = xp.load_path(args.path)
        phi2 = xp.load_path(args.path2)
        reg = Regularity(args.tau, getattr(args, "lambda"), args.gamma, args.alpha)
        chk, ratio, check = xp.path_stability(w1, phi, phi2, reg, args.theta, args.a, args.b, _quad(args))
        rows = [{"j": 0, "interval": args.b - args.a, "lhs": chk.lhs,
                 "term1": chk.term1, "term2": chk.term2, "c2_shape": chk.c2_shape,
                 "ratio": ratio}]
        report = xp.RunReport(spec.name, spec.to_json_dict(), comparisons=rows[0],
                              checks=[check])
    else:
        raise xp.SpecValidationError(f"unknown bounds check {args.check!r}")
    if args.out:
        xp.write_csv_rows(Path(args.out) / f"{spec.name}.csv", rows)
    _emit(args, report.to_json_dict(not args.no_timestamp), f"{spec.name}.json")
    return _verdict(report)


def cmd_indefinite(args) -> int:
    w = make_field(args.field)
    phi = xp.load_path(args.path)
    reg = Regularity(args.tau, getattr(args, "lambda"), args.gamma, args.alpha)
    res = indefinite_integral(w, phi, reg, args.a, args.b, args.points)
    payload = {
        "regression_slope": res.regression_slope,
        "error_estimate": res.error_estimate,
        "lag_lengths": [float(x) for x in res.lag_lengths],
        "lag_medians": [float(x) for x in res.lag_medians],
    }
    if args.out:
        write_path_csv(Path(args.out) / "indefinite.csv", res.path)
    _emit(args, payload, "indefinite.json")
    return EXIT_OK


def cmd_iterate(args) -> int:
    descs = [d.strip() for d in _split_top_level(args.fields) if d.strip()]
    if args.n and len(descs) == 1:
        descs = descs * args.n
    joints = [JointField(make_field(d), args.tau, getattr(args, "lambda")) for d in descs]
    rho = xp.load_path(args.rho)
    res = iterated_integral(joints, rho, args.a, args.b, n_points=args.points)
    payload = {
        "value": res.value,
        "error_estimate": res.error_estimate,
        "stage_stats": [
            {"stage": k + 1, "exponent_estimate": e, "endpoint": float(p.values[-1])}
            for k, (p, e) in enumerate(zip(res.stage_paths, res.stage_exponents))
        ],
        "method": res.method,
        "variant": res.variant,
    }
    if args.growth_scales:
        scales = [float(s) for s in args.growth_scales.split(",")]
        gamma_n = args.gamma_n if args.gamma_n is not None else 0.9 * (args.tau + getattr(args, "lambda"))
        g = growth_check(joints, rho, args.a, scales, gamma_n)
        payload["growth"] = {
            "gamma_n": gamma_n,
            "ratios": [float(r) for r in g.ratios],
            "slope": g.slope,
        }
    _emit(args, payload, "iterate.json")
    return EXIT_OK


def cmd_suite(args) -> int:
    report = xp.suite(args.suite_name)
    _emit(args, report.to_json_dict(not args.no_timestamp), f"suite-{args.suite_name}.json")
    return _verdict(report)


def cmd_holder(args) -> int:
    if args.field:
        w = make_field(args.field)
        reg = Regularity(args.tau, getattr(args, "lambda"), args.gamma or 1.0, 0.5)
        lo, hi = (float(x) for x in args.box.split(","))
        rep = holder_seminorm_field(w, reg, args.a, args.b, (lo, hi))
        payload = {
            "rect_term": rep.rect_term,
            "time_term": rep.time_term,
            "space_term": rep.space_term,
            "norm": rep.norm,
            "bracket": rep.bracket,
            "n_pairs_checked": rep.n_pairs_checked,
        }
    else:
        _require(args, "holder without --field", "path")
        p = xp.load_path(args.path)
        if not hasattr(p, "ts"):
            from .paths import sample_function

            p = sample_function(p, args.a, args.b, 2048)
        rep = holder_seminorm_path(p, args.exponent, args.a, args.b)
        payload = {
            "seminorm": rep.seminorm,
            "exponent": rep.exponent,
            "arg_pair": list(rep.arg_pair),
            "n_pairs_checked": rep.n_pairs_checked,
        }
    _emit(args, payload, "holder.json")
    return EXIT_OK


def cmd_frac(args) -> int:
    f = make_function(args.f)
    ops = {
        "ileft": lambda: frac_integral_left(f, args.alpha, args.a, args.t, _quad(args)),
        "iright": lambda: frac_integral_right(f, args.alpha, args.t, args.b, _quad(args)),
        "dleft": lambda: weyl_left(f, args.alpha, args.a, args.t, args.mu, _quad(args)),
        "dright": lambda: weyl_right(f, args.alpha, args.t, args.b, args.mu, _quad(args)),
    }
    if args.op not in ops:
        raise xp.SpecValidationError(f"unknown frac op {args.op!r}")
    res = ops[args.op]()
    payload = {"value": res.value, "error_estimate": res.error_estimate, "converged": res.converged}
    _emit(args, payload, f"frac-{args.op}.json")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="directory for report files")
    p.add_argument("--quad", default=None,
                   help="quadrature overrides from the keys n (n_nodes, a multiple of 4), "
                        "n_outer and tol, e.g. n=4096,tol=1e-8")
    p.add_argument("--no-timestamp", action="store_true", help="omit timing for byte-identical reports")


def _add_regularity(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlyoung",
        description="Nonlinear Young integration of Holder media along Holder paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="evaluate int_a^b W(dt, phi_t)")
    p.add_argument("--method", choices=["frac", "fractional", "sewing", "both"], default="both")
    p.add_argument("--field", required=True, help="field descriptor or grid .json")
    p.add_argument("--path", required=True, help="path descriptor or .csv")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_regularity(p)
    p.add_argument("--name", default="integrate")
    p.add_argument("--tolerances", default=None, help="JSON dict of declared tolerances")
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("young", help="classical Young integral int f dg")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--alpha-f", type=float, default=1.0)
    p.add_argument("--beta-g", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(func=cmd_young)

    p = sub.add_parser("bounds", help="scaling-bound studies; emits a ratio table")
    p.add_argument("--check", required=True,
                   choices=["holder", "centered", "refined", "stability-w", "stability-phi"])
    p.add_argument("--field", required=True)
    p.add_argument("--field2", default=None)
    p.add_argument("--path", default=None)
    p.add_argument("--path2", default=None)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_regularity(p)
    p.add_argument("--jmax", type=int, default=6)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--big-l", type=float, default=1.0)
    p.add_argument("--beta-target", type=float, default=None)
    p.add_argument("--theta", type=float, default=xp.STABILITY_THETA)
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("indefinite", help="indefinite integral on a uniform grid")
    p.add_argument("--field", required=True)
    p.add_argument("--path", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_regularity(p)
    p.add_argument("--points", type=int, default=513)
    _add_common(p)
    p.set_defaults(func=cmd_indefinite)

    p = sub.add_parser("iterate", help="iterated nonlinear integrals")
    p.add_argument("--fields", required=True,
                   help="comma-separated field descriptors, each in parentheses")
    p.add_argument("--rho", required=True)
    p.add_argument("--n", type=int, default=None, help="replicate a single field n times")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--points", type=int, default=513)
    p.add_argument("--growth-scales", default=None, help="comma-separated interval lengths")
    p.add_argument("--gamma-n", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("suite", help="run a pinned acceptance suite")
    p.add_argument("suite_name", choices=list(xp.SUITE_NAMES))
    _add_common(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("holder", help="Holder seminorm estimates")
    p.add_argument("--path", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--exponent", type=float, default=0.5)
    p.add_argument("--box", default="0,1")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--lambda", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_holder)

    p = sub.add_parser("frac", help="fractional integrals and Weyl derivatives")
    p.add_argument("--op", required=True, choices=["ileft", "iright", "dleft", "dright"])
    p.add_argument("--f", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mu", type=float, default=1.0,
                   help="Holder order of f, above alpha; sets the Weyl derivative's extrapolation order")
    _add_common(p)
    p.set_defaults(func=cmd_frac)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out", None):
        Path(args.out).mkdir(parents=True, exist_ok=True)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # includes SpecValidationError, RegularityError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
