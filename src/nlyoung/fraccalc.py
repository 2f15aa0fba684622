"""Fractional Riemann-Liouville integrals and Weyl (Marchaud-form) derivatives.

Conventions: all operators return real values.  The complex phases that the
two-sided definitions formally carry always occur in matched pairs in the
composed formulas this package evaluates, where they multiply to -1; that sign
is applied explicitly at each composition site rather than tracked per
operator.

Each operator has one sided body that evaluates f at t + side*u for the
distance u from t (side -1 looks left toward a, +1 right toward b); the
public left/right functions only fix the side.  These run on graded meshes
through quadrature.singular_sum; dl_dr_integral, which needs Marchaud sums at
every point, on a uniform grid.  The gamma function is math.gamma.
"""

from __future__ import annotations

import math
from math import gamma

import numpy as np

from .paths import path_diff
from .quadrature import (
    SPLIT_RADIUS,
    QuadratureConfig,
    QuadResult,
    hat_weights,
    marchaud_conv,
    refine_levels,
    singular_cells,
    singular_sum,
    two_sided_cells,  # unused here, but perfbench/spans.py wraps it in this module
    two_sided_grid_sum,
)

__all__ = [
    "frac_integral_left",
    "frac_integral_right",
    "weyl_left",
    "weyl_right",
    "smooth_parts_identity_check",
]


def _scalar(x) -> float:
    return float(np.squeeze(np.asarray(x)))


def _require_order(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {alpha}")


def _require_interval(a: float, b: float, names: tuple[str, str] = ("a", "b")) -> None:
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        lo, hi = names
        raise ValueError(f"need finite {lo} < {hi}, got {lo}={a}, {hi}={b}")


def _side_point(lo: float, hi: float, side: float) -> float:
    """The evaluation point t of a sided operator on [lo, hi]: hi for the
    left side, lo for the right one; rejects an empty or unbounded interval."""
    _require_interval(lo, hi, ("a", "t") if side < 0 else ("t", "b"))
    return hi if side < 0 else lo


def _frac_integral(f, alpha: float, lo: float, hi: float, side: float, cfg: QuadratureConfig | None) -> QuadResult:
    cfg = cfg or QuadratureConfig()
    _require_order(alpha)
    t = _side_point(lo, hi, side)
    length = hi - lo
    inv_gamma = 1.0 / gamma(alpha)

    def evaluate(n: int) -> float:
        mass, cent = singular_cells(length, alpha - 1.0, n, cfg.tail_floor)
        return inv_gamma * float(mass @ np.asarray(f(t + side * cent), dtype=float))

    return refine_levels(evaluate, cfg.n_nodes, cfg.tol)


def frac_integral_left(f, alpha: float, a: float, t: float, cfg: QuadratureConfig | None = None) -> QuadResult:
    """(1/Gamma(alpha)) int_a^t (t-s)^(alpha-1) f(s) ds.

    Quadrature: substitute u = t - s and integrate u^(alpha-1) exactly over
    cells graded into the singular end u = 0, evaluating f at the
    kernel-weighted centroid of each cell.  The value is Richardson-refined
    from three cell counts; error_estimate and the node-doubling convergence
    flag come from the same levels.
    """
    return _frac_integral(f, alpha, a, t, -1.0, cfg)


def frac_integral_right(f, alpha: float, t: float, b: float, cfg: QuadratureConfig | None = None) -> QuadResult:
    """Magnitude of the right-sided fractional integral on [t, b].

    Mirror of frac_integral_left under s -> a + b - s; the formal phase
    (-1)^(-alpha) is a sign convention, not part of the returned value.
    """
    return _frac_integral(f, alpha, t, b, 1.0, cfg)


def _weyl(f, alpha: float, lo: float, hi: float, side: float, holder_mu: float, cfg: QuadratureConfig | None) -> QuadResult:
    cfg = cfg or QuadratureConfig()
    _require_order(alpha)
    if holder_mu <= alpha:
        raise ValueError(f"need holder_mu > alpha, got mu={holder_mu}, alpha={alpha}")
    t = _side_point(lo, hi, side)
    length = hi - lo
    ft = _scalar(f(t))
    boundary = ft / length**alpha
    pref = 1.0 / gamma(1.0 - alpha)
    p = -alpha - 1.0
    # the far band is graded for integrands rough at distance `length`
    far_g = min(8.0, max(1.0, 2.0 / holder_mu))
    f_max = [abs(ft)]  # over the nodes of the latest level

    def evaluate(n: int) -> float:
        # cells built at the true scale (scale factor 1, absolute floor):
        # rescaled reference cells add rounding that this kernel amplifies
        mass, cent = singular_cells(length, p, n, cfg.tail_floor, far_g, SPLIT_RADIUS)
        d = np.asarray(path_diff(f, t, t + side * cent), dtype=float)
        f_max[0] = max(abs(ft), float(np.max(np.abs(ft - d))))
        s_int = singular_sum(d, 1.0, mass, cent, cfg.tail_floor * length, p)
        return pref * (boundary + alpha * float(s_int))

    res = refine_levels(evaluate, cfg.n_nodes, cfg.tol)
    # the kernel amplifies rounding in f down to the floor, which Richardson cannot see
    round_off = np.finfo(float).eps * f_max[0] * (cfg.tail_floor * length) ** -alpha
    return QuadResult(res.value, res.error_estimate + round_off, res.converged, res.levels)


def weyl_left(
    f,
    alpha: float,
    a: float,
    t: float,
    holder_mu: float = 1.0,
    cfg: QuadratureConfig | None = None,
) -> QuadResult:
    """Left Weyl-Marchaud derivative at t:

        (1/Gamma(1-alpha)) [ f(t)/(t-a)^alpha
                             + alpha * int_a^t (f(t)-f(s)) (t-s)^(-alpha-1) ds ]

    holder_mu is the caller's Holder order of f and must exceed alpha; it sets
    the far-end mesh grading.
    """
    return _weyl(f, alpha, a, t, -1.0, holder_mu, cfg)


def weyl_right(
    f,
    alpha: float,
    t: float,
    b: float,
    holder_mu: float = 1.0,
    cfg: QuadratureConfig | None = None,
) -> QuadResult:
    """Right-sided mirror of weyl_left (real magnitude, sign by convention)."""
    return _weyl(f, alpha, t, b, 1.0, holder_mu, cfg)


# ---------------------------------------------------------------------------
# the composed integral  -int_a^b D_{a+}^g f(t) * D_{b-}^{1-g} g_{b-}(t) dt
# (shared by the classical-Young module and the smooth-parts identity check)


def dl_dr_integral(
    f,
    g,
    gam: float,
    a: float,
    b: float,
    mu_f: float = 1.0,
    beta_g: float = 1.0,
    cfg: QuadratureConfig | None = None,
) -> QuadResult:
    """Evaluate  -int_a^b D^gam_{a+} f(t) * D^{1-gam}_{b-} g_{b-}(t) dt.

    f and g are sampled once on N + 1 uniform nodes (N = cfg.grid_cells());
    both Marchaud sums at every node are FFT convolutions, and the outer
    weights (t-a)^(-gam), (b-t)^(gam-1) are integrated exactly on each half
    of [a, b].  Levels N/4, N/2, N subsample the nodes and are extrapolated
    at the scheme's error order min(2-gam, 1+gam).  Requires mu_f > gam and
    beta_g > 1 - gam for the inner integrals to converge.

    f and g may also return K rows of N + 1 samples each; the result is then
    sum_k int f_k dg_k, with the rows' integrands summed at the nodes before
    the outer sum and the one extrapolation.
    """
    cfg = cfg or QuadratureConfig()
    if not 0.0 < gam < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gam}")
    if mu_f <= gam:
        raise ValueError(f"need mu_f > gamma, got mu_f={mu_f}, gamma={gam}")
    if beta_g <= 1.0 - gam:
        raise ValueError(f"need beta_g > 1 - gamma, got beta_g={beta_g}, gamma={gam}")
    _require_interval(a, b)
    big_n = cfg.grid_cells()
    ts = np.linspace(a, b, big_n + 1)
    fv, gv = np.asarray(f(ts), dtype=float), np.asarray(g(ts), dtype=float)
    # a cell's weights do not depend on N: the finest level's serve all three
    w_left, w_right = hat_weights(-gam - 1.0, big_n + 1), hat_weights(gam - 2.0, big_n + 1)
    w_a, w_b = hat_weights(-gam, big_n // 2), hat_weights(gam - 1.0, big_n // 2)
    pref = -1.0 / (gamma(1.0 - gam) * gamma(gam))

    def evaluate(n: int) -> float:
        fn, gn = fv[..., :: big_n // n], gv[..., :: big_n // n]
        j = np.arange(n + 1.0)
        dl_hat = marchaud_conv(fn, *w_left)  # becomes (t-a)^gam Gamma(1-gam) DL f
        dl_hat *= gam * j**gam
        dl_hat += fn
        dr_hat = marchaud_conv(gn[..., ::-1], *w_right)[..., ::-1]
        dr_hat *= (1.0 - gam) * j[::-1] ** (1.0 - gam)
        dr_hat += gn - gn[..., -1:]
        dl_hat *= dr_hat
        return pref * two_sided_grid_sum(dl_hat.reshape(-1, n + 1).sum(axis=0), -gam, gam - 1.0, w_a, w_b)

    return refine_levels(evaluate, big_n, cfg.tol, order=min(2.0 - gam, 1.0 + gam))


def riemann_stieltjes_midpoint(f, g, a: float, b: float, n: int) -> float:
    """Midpoint Riemann-Stieltjes sum  sum f(mid_i) (g(t_{i+1}) - g(t_i))."""
    ts = np.linspace(a, b, n + 1)
    mids = 0.5 * (ts[1:] + ts[:-1])
    return float(np.asarray(f(mids), dtype=float) @ path_diff(g, ts[1:], ts[:-1]))


def smooth_parts_identity_check(
    f,
    g,
    alpha: float,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Residual of the fractional integration-by-parts identity on smooth f, g.

    Compares the classical Riemann-Stieltjes value of int f dg (midpoint rule,
    Richardson refined) against the composed fractional form; returns the
    absolute difference.
    """
    cfg = cfg or QuadratureConfig()
    _require_order(alpha)
    classical = refine_levels(
        lambda n: riemann_stieltjes_midpoint(f, g, a, b, n), cfg.n_nodes, cfg.tol
    )
    fractional = dl_dr_integral(f, g, alpha, a, b, mu_f=1.0, beta_g=1.0, cfg=cfg)
    return abs(classical.value - fractional.value)
