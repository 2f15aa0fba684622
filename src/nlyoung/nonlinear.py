"""The nonlinear Young integral  int_a^b W(dt, phi_t)  by two constructions.

The fractional route evaluates the four-term expansion

    -1/(Gamma(al) Gamma(1-al)) * [ I1 + al*I2 + (1-al)*I3 + al*(1-al)*I4 ]

    I1 = int  W_{b-}(t, phi_t) (b-t)^(al-1) (t-a)^(-al) dt
    I2 = int int_a^t  [W_{b-}(t,phi_t) - W_{b-}(t,phi_r)] (b-t)^(al-1) (t-r)^(-al-1) dr dt
    I3 = int int_t^b  [W(t,phi_t) - W(s,phi_t)] (s-t)^(al-2) (t-a)^(-al) ds dt
    I4 = int int_a^t int_t^b  [rectangular increment] (s-t)^(al-2) (t-r)^(-al-1) ds dr dt

with W_{b-}(t,x) = W(t,x) - W(b,x).  The expansion is linear in W, and for
W = g(t) h(x) it is the fractional Young form of int h(phi) dg (Zahle 1998).
Every medium the package builds is a finite sum W = sum_k g_k(t) h_k(x)
(Field.separable_terms), so the four terms are computed as
sum_k int h_k(phi) dg_k by one call of fraccalc.dl_dr_integral on the
stacked terms.  The sewing route sums the germ
mu(s,t) = W(t,phi_s) - W(s,phi_s) over dyadic partitions and
Richardson-extrapolates the limit.  Both require the declared exponents to
satisfy tau + lam*gamma > 1, with the fractional order alpha in
(1 - tau, lam*gamma); the value does not depend on the admissible alpha.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .fields import (
    Field,
    DifferenceField,
    FieldHolderReport,
    Regularity,
    RegularityError,
    holder_seminorm_field,
)
from .fraccalc import _require_interval, dl_dr_integral
from .paths import (
    HolderReport,
    SampledPath,
    holder_seminorm_path,
    sample_function,
)
from .quadrature import (
    QuadratureConfig,
    refine_levels,  # unused here, but perfbench/spans.py wraps it in this module
    singular_cells,  # likewise
    two_sided_cells,  # likewise
)
from .regression import lag_scaling_slope

__all__ = [
    "Germ",
    "IntegralReport",
    "SewingTrace",
    "NormEstimates",
    "integrate_fractional",
    "integrate_sewing",
    "alpha_independence",
    "AlphaIndependence",
    "BoundCheck",
    "centered_bound_check",
    "refined_bound_check",
    "IndefiniteResult",
    "indefinite_integral",
    "StabilityCheck",
    "stability_in_medium",
    "stability_in_path",
    "estimate_norms",
]


@dataclass(frozen=True)
class Germ:
    """Two-point germ mu(s, t) = W(t, phi_s) - W(s, phi_s) of the sewing method."""

    w: Field
    phi: object

    def __call__(self, s, t):
        return self.w.increment_t(s, t, self.phi(s))


@dataclass(frozen=True)
class IntegralReport:
    """Value of one nonlinear-integral evaluation plus its diagnostics."""

    value: float
    method: str
    error_estimate: float
    alpha: float | None = None
    levels_used: int | None = None
    bound_ratios: dict = dataclass_field(default_factory=dict)
    runtime_ms: float = 0.0
    converged: bool = True
    params: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self, with_timing: bool = True) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "bound_ratios": dict(self.bound_ratios),
            "converged": self.converged,
            "params": dict(self.params),
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.levels_used is not None:
            out["levels_used"] = self.levels_used
        if with_timing:
            out["runtime_ms"] = self.runtime_ms
        return out


@dataclass(frozen=True)
class NormEstimates:
    """Seminorm estimates shared by the bound checks."""

    field: FieldHolderReport
    path: HolderReport
    box: tuple[float, float]


def _phi_box(phi, a: float, b: float, n: int = 1024) -> tuple[float, float]:
    ts = np.linspace(a, b, n + 1)
    v = np.asarray(phi(ts), dtype=float)
    lo, hi = float(np.min(v)), float(np.max(v))
    pad = max(1e-6, 0.05 * (hi - lo), 1e-3 * max(abs(lo), abs(hi)))
    return lo - pad, hi + pad


def _as_sampled(phi, a: float, b: float, n: int = 1024) -> SampledPath:
    if isinstance(phi, SampledPath):
        return phi
    return sample_function(phi, a, b, n)


def estimate_norms(w: Field, phi, reg: Regularity, a: float, b: float) -> NormEstimates:
    """Probe-grid seminorm estimates of the medium and the path on [a, b]."""
    box = _phi_box(phi, a, b)
    fr = holder_seminorm_field(w, reg, a, b, box)
    pr = holder_seminorm_path(_as_sampled(phi, a, b), reg.gamma, a, b)
    return NormEstimates(fr, pr, box)


def integrate_fractional(
    w: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    *,
    with_bounds: bool = True,
) -> IntegralReport:
    """int_a^b W(dt, phi_t) by the four-term fractional expansion.

    The expansion is linear in W, so for W = sum_k g_k(t) h_k(x) it is
    sum_k int h_k(phi) dg_k, each term the fractional Young form.  phi is
    sampled once and dl_dr_integral runs on the stacked rows h_k(phi) and g_k
    over params["grid_cells"] cells.  A medium without separable_terms()
    raises ValueError; sample it into a GridField.  The bound_ratios["holder"]
    entry divides |value| by the estimated right side of the a-priori bound
    ||W|| (b-a)^tau + ||W|| ||phi||^lam (b-a)^(tau+lam*gamma).
    """
    cfg = cfg or QuadratureConfig()
    _require_interval(a, b)
    reg.require_admissible()
    t0 = time.perf_counter()
    terms = w.separable_terms()
    if terms is None:
        raise ValueError(
            f"medium {w.descriptor!r} has no separable expansion; "
            "sample it into a GridField to integrate it"
        )
    params = {
        "a": a,
        "b": b,
        "tau": reg.tau,
        "lam": reg.lam,
        "gamma": reg.gamma,
        "n_outer": cfg.n_outer,
        "grid_cells": cfg.grid_cells(),
    }
    g_terms, h_terms = zip(*terms)

    def rows(fns, x, size):
        out = np.empty((len(fns), size))
        for k, fn in enumerate(fns):
            out[k] = fn(x)
        return out

    combined = dl_dr_integral(
        lambda ts: rows(h_terms, phi(ts), ts.size),
        lambda ts: rows(g_terms, ts, ts.size),
        reg.alpha, a, b, mu_f=reg.lam * reg.gamma, beta_g=reg.tau, cfg=cfg,
    )

    bound_ratios: dict = {}
    if with_bounds:
        norms = estimate_norms(w, phi, reg, a, b)
        wn = norms.field.norm
        pn = norms.path.seminorm
        denom = wn * (b - a) ** reg.tau + wn * pn**reg.lam * (b - a) ** (
            reg.tau + reg.lam * reg.gamma
        )
        if denom > 0:
            bound_ratios["holder"] = abs(combined.value) / denom

    runtime_ms = 1e3 * (time.perf_counter() - t0)
    return IntegralReport(
        value=combined.value,
        method="fractional",
        error_estimate=combined.error_estimate,
        alpha=reg.alpha,
        bound_ratios=bound_ratios,
        runtime_ms=runtime_ms,
        converged=combined.converged,
        params=params,
    )


# ---------------------------------------------------------------------------
# sewing / Riemann sums


@dataclass(frozen=True)
class SewingTrace:
    """Riemann sums over nested dyadic partitions and their refinement data."""

    sums: tuple
    extrapolated: float
    orders: tuple

    def fitted_order(self, lo_level: int, hi_level: int) -> float:
        """Convergence order fitted on |J_(k+1) - J_k| for lo <= k < hi."""
        diffs = np.abs(np.diff(np.asarray(self.sums)))
        ks = np.arange(diffs.size)
        mask = (ks >= lo_level) & (ks < hi_level) & (diffs > 0)
        if mask.sum() < 2:
            raise ValueError("not enough levels in the requested range")
        slope = np.polyfit(ks[mask], np.log2(diffs[mask]), 1)[0]
        return float(-slope)


def _interleave(coarse: np.ndarray, mid) -> np.ndarray:
    """Values at the nodes of the next dyadic level from the coarse nodes and
    the new midpoints."""
    out = np.empty(coarse.size + np.size(mid))
    out[::2] = coarse
    out[1::2] = mid
    return out


def _germ_sums(w: Field, phi, a: float, b: float):
    """Germ Riemann sums over the dyadic partitions of [a, b], coarsest first."""
    germ = Germ(w, phi)
    k = 0
    while True:
        ts = np.linspace(a, b, 2**k + 1)
        yield float(np.sum(germ(ts[:-1], ts[1:])))
        k += 1


def _separable_sums(g, h, phi, a: float, b: float):
    """The sums of _germ_sums for W = g(t) h(x) with a plain g.

    The germ is (g(t_(i+1)) - g(t_i)) h(phi(t_i)), and each partition is the
    previous one plus its midpoints, so g and h(phi) are carried at the nodes
    and only evaluated at the new midpoints.  These midpoints are bitwise the
    odd nodes of np.linspace(a, b, n + 1) and the even ones are bitwise the
    coarser level's nodes, so the sums match _germ_sums bit for bit.
    """
    ts = np.linspace(a, b, 2)
    gv = np.asarray(g(ts), dtype=float)
    hv = np.asarray(h(phi(ts)), dtype=float)
    n = 1
    while True:
        yield float(np.sum((gv[1:] - gv[:-1]) * hv[:-1]))
        n *= 2
        mid = np.arange(1, n, 2) * ((b - a) / n) + a
        gv = _interleave(gv, g(mid))
        hv = _interleave(hv, h(phi(mid)))


def integrate_sewing(
    w: Field,
    phi,
    a: float,
    b: float,
    max_levels: int = 18,
    tol: float = 1e-10,
) -> tuple[IntegralReport, SewingTrace]:
    """int_a^b W(dt, phi_t) as the limit of germ Riemann sums.

    Dyadic partitions with 2^k intervals are refined until successive sums
    differ by less than tol, from level 4 on, or max_levels is hit;
    params["stop_reason"] says which.  The reported value is the Richardson
    extrapolation of the last three sums at the observed order, falling back
    to the finest sum when the order estimate is unstable.

    Media with a single separable term W = g(t) h(x) whose g has no `diff`
    (so g increments are plain differences) reuse the nodes of the coarser
    partitions: g, phi and h are evaluated at 2^L + 1 points in all for
    L = levels_used.  Every other medium (grids, sums, differences, diagonal
    media, products with a sampled g) calls the germ on all 2^k + 1 nodes of
    every level.
    """
    _require_interval(a, b)
    t0 = time.perf_counter()
    terms = w.separable_terms()
    if terms is not None and len(terms) == 1 and not hasattr(terms[0][0], "diff"):
        (g, h), = terms
        level_sums = _separable_sums(g, h, phi, float(a), float(b))
    else:
        level_sums = _germ_sums(w, phi, a, b)
    sums: list[float] = []
    stop_reason = "max_levels"
    for k, level_sum in zip(range(max_levels + 1), level_sums):
        sums.append(level_sum)
        if k >= 4 and abs(sums[-1] - sums[-2]) < tol:
            stop_reason = "tol"
            break

    diffs = np.abs(np.diff(sums))
    orders = tuple(
        float(np.log2(diffs[i] / diffs[i + 1]))
        for i in range(len(diffs) - 1)
        if diffs[i] > 0 and diffs[i + 1] > 0
    )
    value = sums[-1]
    err = diffs[-1] if diffs.size else 0.0
    if diffs.size >= 2 and diffs[-1] > 0 and diffs[-2] > 0:
        p = math.log2(diffs[-2] / diffs[-1])
        if 0.05 <= p <= 4.0:
            corr = (sums[-1] - sums[-2]) / (2.0**p - 1.0)
            value = sums[-1] + corr
            err = abs(corr)

    scale = max(1.0, abs(value))
    converged = True
    if diffs.size >= 3:
        tail = diffs[-3:]
        if tail[-1] >= tail[-2] >= tail[-3] and tail[-1] > 1e-13 * scale:
            converged = False

    runtime_ms = 1e3 * (time.perf_counter() - t0)
    report = IntegralReport(
        value=value,
        method="sewing",
        error_estimate=float(err),
        levels_used=len(sums) - 1,
        runtime_ms=runtime_ms,
        converged=converged,
        params={
            "a": a,
            "b": b,
            "max_levels": max_levels,
            "tol": tol,
            "stop_reason": stop_reason,
        },
    )
    return report, SewingTrace(tuple(sums), value, orders)


# ---------------------------------------------------------------------------
# alpha independence


@dataclass(frozen=True)
class AlphaIndependence:
    spread: float
    reports: tuple

    @property
    def max_error_estimate(self) -> float:
        return max(r.error_estimate for r in self.reports)


def alpha_independence(
    w: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    alphas,
    cfg: QuadratureConfig | None = None,
) -> AlphaIndependence:
    """Max pairwise spread of the fractional value across admissible alphas."""
    lo, hi = reg.alpha_window()
    reports = []
    for al in alphas:
        if not lo < al < hi:
            raise RegularityError(f"alpha={al:g} outside window ({lo:g}, {hi:g})")
        r = Regularity(reg.tau, reg.lam, reg.gamma, al)
        reports.append(integrate_fractional(w, phi, r, a, b, cfg, with_bounds=False))
    values = [r.value for r in reports]
    return AlphaIndependence(max(values) - min(values), tuple(reports))


# ---------------------------------------------------------------------------
# bound checks


@dataclass(frozen=True)
class BoundCheck:
    """One interval of a bound study: |numerator| against its scaling bound."""

    numerator: float
    denominator: float
    report: IntegralReport

    @property
    def ratio(self) -> float:
        if self.denominator > 0:
            return self.numerator / self.denominator
        if self.numerator <= max(4.0 * self.report.error_estimate, 1e-12):
            return 0.0
        return math.inf


def centered_bound_check(
    w: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    c: float,
    cfg: QuadratureConfig | None = None,
) -> BoundCheck:
    """|int_a^b W(dt,phi) - W(b,phi_c) + W(a,phi_c)| over ||W|| ||phi||^lam (b-a)^(tau+lam gamma)."""
    if not a <= c <= b:
        raise ValueError("need a <= c <= b")
    report = integrate_fractional(w, phi, reg, a, b, cfg, with_bounds=False)
    numerator = abs(report.value - float(w.increment_t(a, b, phi(c))))
    norms = estimate_norms(w, phi, reg, a, b)
    denominator = (
        norms.field.norm
        * norms.path.seminorm**reg.lam
        * (b - a) ** (reg.tau + reg.lam * reg.gamma)
    )
    return BoundCheck(numerator, denominator, report)


def refined_bound_check(
    w: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    ell: float,
    big_l: float,
    beta_target: float,
    cfg: QuadratureConfig | None = None,
) -> BoundCheck:
    """|int_a^b W(dt,phi) - W(b,phi_a) + W(a,phi_a)| over (b-a)^beta_target.

    Requires ell > gamma and checks the pinned-start hypothesis
    |phi(s) - phi(a)| <= big_l |s-a|^ell on samples (5% slack).  beta_target
    is deliberately not validated: calling with a target above the admissible
    threshold is the negative control.
    """
    if ell <= reg.gamma:
        raise ValueError(f"need ell > gamma, got ell={ell}, gamma={reg.gamma}")
    ts = np.linspace(a, b, 513)[1:]
    lhs = np.abs(np.asarray(phi(ts), dtype=float) - float(phi(a)))
    rhs = big_l * (ts - a) ** ell
    if np.any(lhs > 1.05 * rhs + 1e-14):
        worst = float(np.max(lhs - 1.05 * rhs))
        raise ValueError(
            f"pinned-start hypothesis violated by {worst:g}: "
            f"|phi(s)-phi(a)| exceeds {big_l:g} |s-a|^{ell:g}"
        )
    report = integrate_fractional(w, phi, reg, a, b, cfg, with_bounds=False)
    numerator = abs(report.value - float(w.increment_t(a, b, phi(a))))
    return BoundCheck(numerator, (b - a) ** beta_target, report)


# ---------------------------------------------------------------------------
# indefinite integral


@dataclass(frozen=True)
class IndefiniteResult:
    path: SampledPath
    regression_slope: float
    lag_lengths: np.ndarray
    lag_medians: np.ndarray
    error_estimate: float


def indefinite_integral(
    w: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    n_points: int = 513,
    cfg: QuadratureConfig | None = None,
) -> IndefiniteResult:
    """t_i -> int_a^(t_i) W(ds, phi_s) on a uniform grid, built by additivity.

    Each increment is one fractional evaluation on [t_(i-1), t_i]; the
    regression_slope diagnostic fits log(median |increment|) against
    log(lag) over dyadic lags and should sit near tau.
    """
    if n_points < 9:
        raise ValueError("need n_points >= 9")
    cfg = cfg or QuadratureConfig(n_nodes=512, n_outer=96)
    ts = np.linspace(a, b, n_points)
    increments = np.empty(n_points - 1)
    err = 0.0
    for i in range(n_points - 1):
        rep = integrate_fractional(
            w, phi, reg, float(ts[i]), float(ts[i + 1]), cfg, with_bounds=False
        )
        increments[i] = rep.value
        err += rep.error_estimate
    values = np.concatenate([[0.0], np.cumsum(increments)])
    path = SampledPath(ts, values)
    slope, lengths, medians = lag_scaling_slope(ts, values)
    return IndefiniteResult(path, slope, lengths, medians, err)


# ---------------------------------------------------------------------------
# stability in the medium and in the path


@dataclass(frozen=True)
class StabilityCheck:
    lhs: float
    term1: float
    term2: float
    reports: tuple
    c2_shape: float | None = None

    @property
    def combined_error(self) -> float:
        return sum(r.error_estimate for r in self.reports)


def stability_in_medium(
    w1: Field,
    w2: Field,
    phi,
    reg: Regularity,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> StabilityCheck:
    """|int W1 - int W2| against the two-term medium-stability bound.

    term1 is the pinned increment of the difference field at phi_a, term2 the
    bracket seminorm of W1 - W2 times ||phi||^lam (b-a)^(tau+lam*gamma); the
    claim under test is lhs <= term1 + C * term2 with a family-uniform C.
    """
    r1 = integrate_fractional(w1, phi, reg, a, b, cfg, with_bounds=False)
    r2 = integrate_fractional(w2, phi, reg, a, b, cfg, with_bounds=False)
    lhs = abs(r1.value - r2.value)
    diff = DifferenceField(w1, w2)
    term1 = abs(float(diff.increment_t(a, b, phi(a))))
    box = _phi_box(phi, a, b)
    bracket = holder_seminorm_field(diff, reg, a, b, box).bracket
    pn = holder_seminorm_path(_as_sampled(phi, a, b), reg.gamma, a, b).seminorm
    term2 = bracket * pn**reg.lam * (b - a) ** (reg.tau + reg.lam * reg.gamma)
    return StabilityCheck(lhs, term1, term2, (r1, r2))


def stability_in_path(
    w: Field,
    phi1,
    phi2,
    reg: Regularity,
    theta: float,
    u: float,
    v: float,
    cfg: QuadratureConfig | None = None,
) -> StabilityCheck:
    """|int W(ds,phi1) - int W(ds,phi2)| against the two-term path bound.

    term1 = [W] ||phi1-phi2||_inf^lam (v-u)^tau and
    term2 = [W] ||phi1-phi2||_inf^(lam(1-theta)) (v-u)^(tau+theta*lam*gamma);
    c2_shape carries the declared structure 2^(1-theta) (||phi1||^lam +
    ||phi2||^lam)^theta of the second constant.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if reg.tau + theta * reg.lam * reg.gamma <= 1.0:
        raise RegularityError("need tau + theta*lam*gamma > 1")
    r1 = integrate_fractional(w, phi1, reg, u, v, cfg, with_bounds=False)
    r2 = integrate_fractional(w, phi2, reg, u, v, cfg, with_bounds=False)
    lhs = abs(r1.value - r2.value)
    ts = np.linspace(u, v, 2049)
    supdiff = float(np.max(np.abs(np.asarray(phi1(ts)) - np.asarray(phi2(ts)))))
    box1, box2 = _phi_box(phi1, u, v), _phi_box(phi2, u, v)
    lo, hi = min(box1[0], box2[0]), max(box1[1], box2[1])
    bracket = holder_seminorm_field(w, reg, u, v, (lo, hi)).bracket
    n1 = holder_seminorm_path(_as_sampled(phi1, u, v), reg.gamma, u, v).seminorm
    n2 = holder_seminorm_path(_as_sampled(phi2, u, v), reg.gamma, u, v).seminorm
    term1 = bracket * supdiff**reg.lam * (v - u) ** reg.tau
    term2 = (
        bracket
        * supdiff ** (reg.lam * (1.0 - theta))
        * (v - u) ** (reg.tau + theta * reg.lam * reg.gamma)
    )
    c2_shape = 2.0 ** (1.0 - theta) * (n1**reg.lam + n2**reg.lam) ** theta
    return StabilityCheck(lhs, term1, term2, (r1, r2), c2_shape)
