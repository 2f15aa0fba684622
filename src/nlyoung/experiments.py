"""Reproducible experiment runner: specs, reports, and the pinned suites.

An ExperimentSpec names a field, a path, exponents, an interval and the
methods to run; run() executes it and emits a RunReport whose pass/fail
verdicts are recomputable from the numbers it contains.  The suites bundle
the pinned study families (reduction, alpha, convergence, bounds, iterated)
used both by the command line and by the acceptance tests.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field as dataclass_field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .fields import ProductField, Regularity, RegularityError, make_field
from .iterated import GrowthParams, JointField, growth_check, iterated_integral
from .nonlinear import (
    alpha_independence,
    centered_bound_check,
    indefinite_integral,
    integrate_fractional,
    integrate_sewing,
    refined_bound_check,
    stability_in_medium,
    stability_in_path,
)
from .paths import make_function, read_path_csv
from .quadrature import QuadratureConfig
from .regression import theil_sen_slope

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "SpecValidationError",
    "run",
    "suite",
    "SUITE_NAMES",
    "pinned_combos",
    "parse_quad_fragment",
]


class SpecValidationError(ValueError):
    """The experiment spec is malformed or violates an admissibility condition."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One integrate experiment: medium, path, exponents, interval, methods."""

    name: str
    field: str
    path: str
    tau: float
    lam: float
    gamma: float
    a: float
    b: float
    methods: tuple = ("fractional", "sewing")
    alpha: float | None = None
    alphas: tuple = ()
    quad: dict = dataclass_field(default_factory=dict)
    tolerances: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "methods": list(self.methods), "alphas": list(self.alphas)}


@dataclass
class RunReport:
    """Outcome of one experiment or one suite: reports, comparisons, checks.

    The verdicts are derived: a report passes when its checks and its
    children pass, and is nonconverged when one of its method reports, or
    one of its children, did not converge.
    """

    name: str
    spec: dict | None = None
    reports: dict = dataclass_field(default_factory=dict)
    comparisons: dict = dataclass_field(default_factory=dict)
    checks: list = dataclass_field(default_factory=list)
    wall_clock_s: float | None = None
    timestamp: str | None = None
    children: list = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks) and all(c.passed for c in self.children)

    @property
    def nonconverged(self) -> bool:
        return any(not r["converged"] for r in self.reports.values()) or any(
            c.nonconverged for c in self.children
        )

    def to_json_dict(self, with_timing: bool = True) -> dict:
        """JSON form; without timing, runtime_ms, wall_clock_s and timestamp
        are dropped at every depth, so identical runs give identical output."""
        out = {
            "name": self.name,
            "spec": self.spec,
            "reports": self.reports,
            "comparisons": self.comparisons,
            "checks": self.checks,
            "passed": self.passed,
            "nonconverged": self.nonconverged,
        }
        if self.children:
            out["children"] = [c.to_json_dict(with_timing) for c in self.children]
        if with_timing:
            out.update(wall_clock_s=self.wall_clock_s, timestamp=self.timestamp)
        else:
            out["reports"] = {
                m: {k: v for k, v in r.items() if k != "runtime_ms"} for m, r in self.reports.items()
            }
        return out


def parse_quad_fragment(text: str) -> dict:
    """Parse a CLI quadrature fragment like 'n=4096,n_outer=256,tol=1e-8'."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        key, eq, val = item.partition("=")
        if not eq:
            raise SpecValidationError(f"bad quadrature option {item!r}")
        key = key.strip()
        val = val.strip()
        if key == "n":
            key = "n_nodes"
        if key in ("n_nodes", "n_outer"):
            convert = int
        elif key == "tol":
            convert = float
        else:
            raise SpecValidationError(f"unknown quadrature option {key!r}")
        try:
            out[key] = convert(val)
        except ValueError as exc:
            raise SpecValidationError(f"bad quadrature value {item!r}") from exc
    return out


def build_config(quad: dict) -> QuadratureConfig:
    try:
        return QuadratureConfig(**quad)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"bad quadrature config: {exc}") from exc


def load_path(desc: str):
    if desc.endswith(".csv"):
        return read_path_csv(desc)
    return make_function(desc)


def _check(name: str, observed: float, limit: float, passed: bool | None = None) -> dict:
    if passed is None:
        passed = bool(observed <= limit)
    return {"name": name, "observed": observed, "limit": limit, "passed": bool(passed)}


def run(spec: ExperimentSpec) -> RunReport:
    """Execute one spec: per-method values, comparisons, tolerance verdicts."""
    t0 = datetime.now(timezone.utc)
    try:
        w = make_field(spec.field)
        phi = load_path(spec.path)
        reg = Regularity(spec.tau, spec.lam, spec.gamma, spec.alpha)
        reg.require_admissible()
    except (RegularityError, ValueError, FileNotFoundError) as exc:
        raise SpecValidationError(str(exc)) from exc
    for m in spec.methods:
        if m not in ("fractional", "sewing"):
            raise SpecValidationError(f"unknown method {m!r}")
    cfg = build_config(spec.quad)
    tol = spec.tolerances

    reports: dict = {}
    checks: list = []
    comparisons: dict = {}
    raw = {}
    if "fractional" in spec.methods:
        rep = integrate_fractional(w, phi, reg, spec.a, spec.b, cfg)
        raw["fractional"] = rep
        reports["fractional"] = rep.to_json_dict()
    if "sewing" in spec.methods:  # to the spec's tol, as the fractional route
        rep, trace = integrate_sewing(w, phi, spec.a, spec.b, tol=cfg.tol)
        raw["sewing"] = rep
        reports["sewing"] = rep.to_json_dict()
        comparisons["sewing_orders"] = list(trace.orders[-4:])

    if "expected_value" in tol:
        target = tol["expected_value"]
        rtol = tol.get("rtol", 0.0)
        atol = tol.get("atol", 0.0)
        for m, rep in raw.items():
            err = abs(rep.value - target)
            checks.append(_check(f"{m}_matches_expected", err, rtol * abs(target) + atol))
    if len(raw) == 2:
        diff = abs(raw["fractional"].value - raw["sewing"].value)
        esum = raw["fractional"].error_estimate + raw["sewing"].error_estimate
        comparisons["cross_method_diff"] = diff
        comparisons["cross_method_error_sum"] = esum
        if "cross_err_factor" in tol:
            checks.append(_check("cross_method_vs_estimates", diff, tol["cross_err_factor"] * esum))
        if "cross_rel" in tol:
            scale = max(abs(raw["fractional"].value), abs(raw["sewing"].value), 1e-300)
            checks.append(_check("cross_method_relative", diff / scale, tol["cross_rel"]))
    if spec.alphas:
        ai = alpha_independence(w, phi, reg, spec.a, spec.b, spec.alphas, cfg)
        comparisons["alpha_spread"] = ai.spread
        comparisons["alpha_values"] = [r.value for r in ai.reports]
        factor = tol.get("alpha_spread_factor", 20.0)
        checks.append(_check("alpha_spread", ai.spread, factor * ai.max_error_estimate))

    return RunReport(
        spec.name, spec.to_json_dict(), reports, comparisons, checks,
        wall_clock_s=(datetime.now(timezone.utc) - t0).total_seconds(),
        timestamp=t0.isoformat(),
    )


# ---------------------------------------------------------------------------
# pinned study families


def _wei(h: float, scales: int = 12, phase: float | None = None) -> str:
    desc = f"weierstrass:H={h:g},scales={scales}"
    if phase is not None:
        desc += ",phases=" + "|".join([f"{phase:g}"] * scales)
    return desc


def _product(g: str, h: str) -> str:
    return f"product:g=({g}),h=({h})"


def pinned_combos() -> list[ExperimentSpec]:
    """Six Weierstrass field/path combinations with tau + lam*gamma in
    {1.2, 1.3, 1.5}, quadrature budgets tuned per case."""
    mk = ExperimentSpec
    tolerances = {"cross_err_factor": 5.0, "cross_rel": 0.02}
    combos = [
        mk("wei-e02-lam1", _product(_wei(0.6), "identity"), _wei(0.6, phase=0.3),
           0.6, 1.0, 0.6, 0.0, 1.0,
           quad={"n_outer": 1536, "tol": 5e-3}, tolerances=tolerances),
        mk("wei-e02-lam08", _product(_wei(0.7), _wei(0.8, 10)), _wei(0.625),
           0.7, 0.8, 0.625, 0.0, 1.0,
           quad={"n_outer": 2048, "tol": 5e-3}, tolerances=tolerances),
        mk("wei-e03-lam1", _product(_wei(0.6), "identity"), _wei(0.7),
           0.6, 1.0, 0.7, 0.0, 1.0,
           quad={"n_outer": 1536, "tol": 5e-3}, tolerances=tolerances),
        mk("wei-e03-steep", _product(_wei(0.75), "identity"), _wei(0.55, phase=1.0),
           0.75, 1.0, 0.55, 0.0, 1.0,
           quad={"n_outer": 2048, "tol": 5e-3}, tolerances=tolerances),
        mk("wei-e05-lam1", _product(_wei(0.8), "identity"), _wei(0.7, phase=0.5),
           0.8, 1.0, 0.7, 0.0, 1.0,
           quad={"n_outer": 1536, "tol": 5e-3}, tolerances=tolerances),
        mk("wei-e05-lam075", _product(_wei(0.9), _wei(0.75, 10)), _wei(0.8),
           0.9, 0.75, 0.8, 0.0, 1.0,
           quad={"n_outer": 2048, "tol": 5e-3}, tolerances=tolerances),
    ]
    return combos


def reduction_specs() -> list[ExperimentSpec]:
    """Product media W(t,x) = g(t) x whose nonlinear integral is classical."""
    cases = [
        ("reduce-t-t", "identity", "identity", 0.5),
        ("reduce-t2-t3", "monomial:p=2", "monomial:p=3", 0.4),
        ("reduce-sin-t2", "sin", "monomial:p=2", 2.0 * math.cos(1.0) - math.sin(1.0)),
    ]
    return [
        ExperimentSpec(
            name, _product(g, "identity"), phi, 1.0, 1.0, 1.0, 0.0, 1.0,
            tolerances={"expected_value": val, "rtol": 1e-4},
        )
        for name, g, phi, val in cases
    ]


def _alpha_grid(reg: Regularity, k: int = 5) -> list[float]:
    lo, hi = reg.alpha_window()
    width = hi - lo
    return [float(x) for x in np.linspace(lo + 0.1 * width, hi - 0.1 * width, k)]


def alpha_specs() -> list[ExperimentSpec]:
    out = []
    for combo in pinned_combos():
        reg = Regularity(combo.tau, combo.lam, combo.gamma)
        out.append(
            replace(
                combo,
                name=combo.name + "-alpha",
                methods=("fractional",),
                alphas=tuple(_alpha_grid(reg)),
                # edge-of-window alphas converge marginally by nature; the
                # spread criterion is scaled by the reported error estimates
                quad={"n_outer": 1024, "tol": 2e-2},
                tolerances={"alpha_spread_factor": 20.0},
            )
        )
    return out


# ---------------------------------------------------------------------------
# composite studies (additivity, sewing order, indefinite, bounds, stability)


def additivity_study(spec: ExperimentSpec, n_cuts: int = 10, seed: int = 7) -> RunReport:
    """|int_a^b - int_a^c - int_c^b| <= summed error estimates, both methods."""
    w = make_field(spec.field)
    phi = load_path(spec.path)
    reg = Regularity(spec.tau, spec.lam, spec.gamma, spec.alpha)
    cfg = build_config(dict(spec.quad))
    rng = np.random.RandomState(seed)
    cuts = spec.a + (0.1 + 0.8 * rng.rand(n_cuts)) * (spec.b - spec.a)
    checks = []
    full_f = integrate_fractional(w, phi, reg, spec.a, spec.b, cfg, with_bounds=False)
    full_s, _ = integrate_sewing(w, phi, spec.a, spec.b, tol=cfg.tol)
    for idx, c in enumerate(sorted(float(c) for c in cuts)):
        left = integrate_fractional(w, phi, reg, spec.a, c, cfg, with_bounds=False)
        right = integrate_fractional(w, phi, reg, c, spec.b, cfg, with_bounds=False)
        gap = abs(full_f.value - left.value - right.value)
        budget = full_f.error_estimate + left.error_estimate + right.error_estimate
        checks.append(_check(f"frac_additivity_{idx}", gap, budget))
        sl, _ = integrate_sewing(w, phi, spec.a, c, tol=cfg.tol)
        sr, _ = integrate_sewing(w, phi, c, spec.b, tol=cfg.tol)
        gap_s = abs(full_s.value - sl.value - sr.value)
        budget_s = full_s.error_estimate + sl.error_estimate + sr.error_estimate
        checks.append(_check(f"sewing_additivity_{idx}", gap_s, budget_s))
    return RunReport(spec.name + "-additivity", spec.to_json_dict(), checks=checks)


def sewing_order_study(spec: ExperimentSpec, lo: int = 8, hi: int = 14, min_order: float = 0.2) -> RunReport:
    w = make_field(spec.field)
    phi = load_path(spec.path)
    _, trace = integrate_sewing(w, phi, spec.a, spec.b, max_levels=hi, tol=0.0)
    order = trace.fitted_order(lo, hi)
    checks = [_check("sewing_order", order, min_order, passed=order >= min_order)]
    return RunReport(
        spec.name + "-sewing-order", spec.to_json_dict(),
        comparisons={"fitted_order": order, "levels": list(trace.sums)},
        checks=checks,
    )


def indefinite_study(
    spec: ExperimentSpec,
    n_points: int = 513,
    slope_window: float = 0.15,
) -> RunReport:
    w = make_field(spec.field)
    phi = load_path(spec.path)
    reg = Regularity(spec.tau, spec.lam, spec.gamma, spec.alpha)
    res = indefinite_integral(w, phi, reg, spec.a, spec.b, n_points)
    lo, hi = spec.tau - slope_window, spec.tau + slope_window
    ok = lo <= res.regression_slope <= hi
    checks = [_check("indefinite_holder_slope", res.regression_slope, hi, passed=ok)]
    return RunReport(
        spec.name + "-indefinite", spec.to_json_dict(),
        comparisons={
            "regression_slope": res.regression_slope,
            "target_exponent": spec.tau,
            "lag_lengths": [float(x) for x in res.lag_lengths],
            "lag_medians": [float(x) for x in res.lag_medians],
        },
        checks=checks,
    )


def centered_bound_study(
    spec: ExperimentSpec,
    j_max: int = 6,
    slope_tol: float = 0.15,
) -> tuple[RunReport, list[dict]]:
    """est.W.c ratios across (b-a) = 2^-j; no growth trend in log-ratio."""
    w = make_field(spec.field)
    phi = load_path(spec.path)
    cfg = build_config(dict(spec.quad))
    rows = []
    ratios = []
    for j in range(j_max + 1):
        b_j = spec.a + (spec.b - spec.a) * 2.0 ** (-j)
        reg = Regularity(spec.tau, spec.lam, spec.gamma, spec.alpha)
        chk = centered_bound_check(w, phi, reg, spec.a, b_j, spec.a, cfg)
        ratios.append(chk.ratio)
        rows.append(
            {
                "j": j,
                "interval": b_j - spec.a,
                "lhs": chk.numerator,
                "rhs_denominator": chk.denominator,
                "ratio": chk.ratio,
            }
        )
    slope = theil_sen_slope(np.arange(j_max + 1), np.log2(np.maximum(ratios, 1e-300)))
    ok = abs(slope) <= slope_tol
    checks = [_check("centered_ratio_trend", abs(slope), slope_tol, passed=ok)]
    report = RunReport(
        spec.name + "-centered", spec.to_json_dict(),
        comparisons={"theil_sen_slope": slope, "ratios": ratios},
        checks=checks,
    )
    return report, rows


def refined_bound_study(
    spec: ExperimentSpec,
    ell: float = 1.0,
    big_l: float = 1.0,
    j_max: int = 6,
    positive_fraction: float = 0.9,
    negative_beta: float | None = None,
) -> tuple[RunReport, list[dict]]:
    """Pinned-start bound: admissible target stays bounded, excessive grows."""
    w = make_field(spec.field)
    cfg = build_config(dict(spec.quad))
    reg = Regularity(spec.tau, spec.lam, spec.gamma, spec.alpha)
    threshold = 1.0 + (reg.lam * reg.gamma + reg.tau - 1.0) * ell / reg.gamma
    beta_pos = positive_fraction * threshold
    beta_neg = negative_beta if negative_beta is not None else threshold + 0.45
    rows = []
    log_pos, log_neg = [], []
    for j in range(j_max + 1):
        b_j = spec.a + (spec.b - spec.a) * 2.0 ** (-j)
        phi_pin = lambda t: big_l * (np.asarray(t, dtype=float) - spec.a) ** ell
        pos = refined_bound_check(w, phi_pin, reg, spec.a, b_j, ell, big_l, beta_pos, cfg)
        neg = refined_bound_check(w, phi_pin, reg, spec.a, b_j, ell, big_l, beta_neg, cfg)
        log_pos.append(math.log2(max(pos.ratio, 1e-300)))
        log_neg.append(math.log2(max(neg.ratio, 1e-300)))
        rows.append(
            {
                "j": j,
                "interval": b_j - spec.a,
                "lhs": pos.numerator,
                "rhs_pos": pos.denominator,
                "rhs_neg": neg.denominator,
                "ratio_pos": pos.ratio,
                "ratio_neg": neg.ratio,
            }
        )
    js = np.arange(j_max + 1)
    slope_pos = theil_sen_slope(js, log_pos)
    slope_neg = theil_sen_slope(js, log_neg)
    checks = [
        _check("refined_positive_bounded", slope_pos, 0.1, passed=slope_pos <= 0.1),
        _check("refined_negative_grows", slope_neg, 0.1, passed=slope_neg > 0.1),
    ]
    report = RunReport(
        spec.name + "-refined", spec.to_json_dict(),
        comparisons={
            "beta_threshold": threshold,
            "beta_positive": beta_pos,
            "beta_negative": beta_neg,
            "slope_positive": slope_pos,
            "slope_negative": slope_neg,
        },
        checks=checks,
    )
    return report, rows


# pinned caps for the family-uniform stability constants, fitted at build
# time on the pinned families and frozen with headroom
STABILITY_MEDIUM_CAP = 10.0
STABILITY_PATH_CAP = 10.0
# the path-stability interpolation order of the study and of `bounds --check
# stability-phi`; the pinned exponents need theta > 4/7
STABILITY_THETA = 0.8


def medium_stability(w1, w2, phi, reg: Regularity, u: float, v: float, cfg, name: str = "medium_two_term"):
    """stability_in_medium on [u, v], its constant max(0, lhs - term1) / term2, and its capped check."""
    sm = stability_in_medium(w1, w2, phi, reg, u, v, cfg)
    constant = max(0.0, sm.lhs - sm.term1) / sm.term2 if sm.term2 > 0 else 0.0
    return sm, constant, _check(name, sm.lhs, sm.term1 + STABILITY_MEDIUM_CAP * sm.term2)


def path_stability(w, phi1, phi2, reg: Regularity, theta: float, u: float, v: float, cfg,
                   name: str = "path_two_term"):
    """stability_in_path on [u, v], its constant lhs / (term1 + c2_shape * term2), and its capped check."""
    sp = stability_in_path(w, phi1, phi2, reg, theta, u, v, cfg)
    denom = sp.term1 + sp.c2_shape * sp.term2
    constant = sp.lhs / denom if denom > 0 else 0.0
    return sp, constant, _check(name, sp.lhs, STABILITY_PATH_CAP * denom)


def stability_study(seed: int = 11, n_intervals: int = 10, theta: float = STABILITY_THETA) -> RunReport:
    """Medium and path stability on pinned Weierstrass families.

    theta must keep tau + theta*lam*gamma above one for the path family
    (tau = 0.6, lam = 1, gamma = 0.7 here, so theta > 4/7).
    """
    w1 = make_field(_product(_wei(0.6), "identity"))
    w2 = make_field(_product(_wei(0.65, phase=0.7), "identity"))
    phi = load_path(_wei(0.7))
    phi2 = load_path(_wei(0.7, phase=0.05))
    reg = Regularity(0.6, 1.0, 0.7)
    cfg = QuadratureConfig(n_outer=768, tol=5e-3)
    rng = np.random.RandomState(seed)
    checks = []
    med_constants = []
    path_constants = []

    deg_m = stability_in_medium(w1, w1, phi, reg, 0.0, 1.0, cfg)
    checks.append(_check("medium_degenerate", deg_m.lhs, 2.0 * deg_m.combined_error))
    deg_p = stability_in_path(w1, phi, phi, reg, theta, 0.0, 1.0, cfg)
    checks.append(_check("path_degenerate", deg_p.lhs, 2.0 * deg_p.combined_error))

    for idx in range(n_intervals):
        u = float(rng.uniform(0.0, 0.55))
        v = float(u + rng.uniform(0.3, 0.45))
        _, c_med, check = medium_stability(w1, w2, phi, reg, u, v, cfg, f"medium_two_term_{idx}")
        med_constants.append(c_med)
        checks.append(check)
        _, c_path, check = path_stability(w1, phi, phi2, reg, theta, u, v, cfg, f"path_two_term_{idx}")
        path_constants.append(c_path)
        checks.append(check)
    return RunReport(
        "stability",
        comparisons={
            "medium_fitted_constants": med_constants,
            "path_fitted_constants": path_constants,
            "medium_cap": STABILITY_MEDIUM_CAP,
            "path_cap": STABILITY_PATH_CAP,
        },
        checks=checks,
    )


def iterated_study() -> RunReport:
    """Factorial identity n = 1..5 and growth-exponent checks."""
    ident = make_function("identity")
    one = make_function("const:c=1")
    checks = []
    for fname, fdesc, base in (("t", "identity", 1.0), ("sin", "sin", math.sin(1.0))):
        f = make_function(fdesc)
        joint = JointField(ProductField(f, one), 1.0, 1.0)
        for n in range(1, 6):
            res = iterated_integral([joint] * n, one, 0.0, 1.0, n_points=2049, fine_level=15)
            exact = base**n / math.factorial(n)
            err = abs(res.value - exact)
            checks.append(_check(f"factorial_{fname}_n{n}", err, 1e-5 * abs(exact) + 1e-9))

    gp = GrowthParams(1.0, 1.0)
    joint_t = JointField(ProductField(ident, one), 1.0, 1.0)
    scales = [2.0**-j for j in range(0, 7)]
    g1 = growth_check([joint_t], ident, 0.0, scales, 1.9)
    checks.append(_check("growth_n1_bounded", -g1.slope, 0.1, passed=g1.slope >= -0.1))
    g2 = growth_check([joint_t, joint_t], ident, 0.0, scales, gp.target(2))
    checks.append(_check("growth_n2_bounded", -g2.slope, 0.1, passed=g2.slope >= -0.1))
    return RunReport(
        "iterated",
        comparisons={"growth_n1_slope": g1.slope, "growth_n2_slope": g2.slope},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# suites


SUITE_NAMES = ("reduction", "alpha", "convergence", "bounds", "iterated")


def suite(name: str) -> RunReport:
    """Run one named acceptance suite with its pinned specs; the suite's
    checks are its children's."""
    t0 = datetime.now(timezone.utc)
    if name == "reduction":
        children = [run(s) for s in reduction_specs()]
    elif name == "alpha":
        children = [run(s) for s in alpha_specs()]
    elif name == "convergence":
        combos = pinned_combos()
        children = [run(c) for c in combos]
        children.append(sewing_order_study(combos[2]))
        children.extend(additivity_study(replace(c, quad={"n_outer": 1024, "tol": 5e-3})) for c in combos)
        children.append(indefinite_study(combos[2]))
    elif name == "bounds":
        combo = replace(pinned_combos()[2], quad={"n_outer": 512, "tol": 5e-3})
        children = [centered_bound_study(combo)[0], refined_bound_study(combo)[0], stability_study()]
    elif name == "iterated":
        children = [iterated_study()]
    else:
        raise SpecValidationError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return RunReport(
        name,
        checks=[c for child in children for c in child.checks],
        wall_clock_s=(datetime.now(timezone.utc) - t0).total_seconds(),
        timestamp=t0.isoformat(),
        children=children,
    )


# ---------------------------------------------------------------------------
# output helpers


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_csv_rows(path, rows: list[dict]) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols))
    atomic_write_text(path, "\n".join(lines) + "\n")
