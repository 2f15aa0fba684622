"""Fractional Riemann-Liouville integrals and Weyl (Marchaud-form) derivatives.

Conventions: all operators return real values.  The complex phases that the
two-sided definitions formally carry always occur in matched pairs in the
composed formulas this package evaluates, where they multiply to -1; that sign
is applied explicitly at each composition site rather than tracked per
operator.

Each operator has one sided body that evaluates f at t + side*u for the
distance u from t (side -1 looks left toward a, +1 right toward b); the
public left/right functions only fix the side.  Every Marchaud difference
integral goes through quadrature.singular_sum, and the gamma function is
math.gamma.
"""

from __future__ import annotations

from math import gamma

import numpy as np

from .paths import path_diff
from .quadrature import (
    QuadratureConfig,
    QuadResult,
    refine_levels,
    singular_cells,
    singular_sum,
    two_sided_cells,
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


def _side_point(lo: float, hi: float, side: float) -> float:
    """The evaluation point t of a sided operator on [lo, hi]: hi for the
    left side, lo for the right one; rejects an empty interval."""
    if hi <= lo:
        lo_name, hi_name = ("a", "t") if side < 0 else ("t", "b")
        raise ValueError(f"need {hi_name} > {lo_name}, got {lo_name}={lo}, {hi_name}={hi}")
    return hi if side < 0 else lo


def _frac_integral(f, alpha: float, lo: float, hi: float, side: float, cfg: QuadratureConfig | None) -> QuadResult:
    cfg = cfg or QuadratureConfig()
    _require_order(alpha)
    t = _side_point(lo, hi, side)
    length = hi - lo
    inv_gamma = 1.0 / gamma(alpha)

    def evaluate(n: int) -> float:
        mass, cent = singular_cells(length, alpha - 1.0, n, cfg.tail_floor, grading=cfg.grading_override())
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
    boundary = _scalar(f(t)) / length**alpha
    pref = 1.0 / gamma(1.0 - alpha)
    p = -alpha - 1.0
    # the far band is graded for integrands rough at distance `length`
    far_g = min(8.0, max(1.0, 2.0 / holder_mu))

    def evaluate(n: int) -> float:
        # cells built at the true scale (scale factor 1, absolute floor):
        # rescaled reference cells add rounding that this kernel amplifies
        mass, cent = singular_cells(
            length, p, n, cfg.tail_floor, far_grading=far_g,
            split=cfg.split_radius, grading=cfg.grading_override(),
        )
        d = np.asarray(path_diff(f, t, t + side * cent), dtype=float)
        s_int = singular_sum(d, 1.0, mass, cent, cfg.tail_floor * length, p)
        return pref * (boundary + alpha * float(s_int))

    return refine_levels(evaluate, cfg.n_nodes, cfg.tol)


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

    The outer integrand carries the explicit weights (t-a)^(-gam) and
    (b-t)^(gam-1), which the outer mesh integrates exactly per cell; the two
    Marchaud sums at each outer node share reference meshes scaled to the
    node.  Requires mu_f > gam and beta_g > 1 - gam for the inner integrals
    to converge.
    """
    cfg = cfg or QuadratureConfig()
    if not 0.0 < gam < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gam}")
    if mu_f <= gam:
        raise ValueError(f"need mu_f > gamma, got mu_f={mu_f}, gamma={gam}")
    if beta_g <= 1.0 - gam:
        raise ValueError(f"need beta_g > 1 - gamma, got beta_g={beta_g}, gamma={gam}")
    if b <= a:
        raise ValueError("need a < b")
    gb = _scalar(g(b))
    pref = -1.0 / (gamma(1.0 - gam) * gamma(gam))

    far_f = min(8.0, max(1.0, 2.0 / mu_f))
    far_g = min(8.0, max(1.0, 2.0 / beta_g))

    def evaluate(n: int) -> float:
        w_out, t_out, len_l, len_r = two_sided_cells(a, b, -gam, gam - 1.0, n, cfg.tail_floor, cfg.grading_override())
        f_t = np.asarray(f(t_out), dtype=float)
        g_t = np.asarray(g(t_out), dtype=float)

        # left Marchaud sum of f at every outer node, on a shared scaled mesh
        m_ref, c_ref = singular_cells(
            1.0, -gam - 1.0, n, cfg.tail_floor, far_grading=far_f,
            split=cfg.split_radius, grading=cfg.grading_override(),
        )
        d = np.asarray(path_diff(f, t_out[:, None], t_out[:, None] - len_l[:, None] * c_ref[None, :]), dtype=float)
        s_l = singular_sum(d, len_l, m_ref, c_ref, cfg.tail_floor, -gam - 1.0)
        dl_hat = f_t + gam * len_l**gam * s_l  # (t-a)^gam * Gamma(1-gam) * DL f

        # right Marchaud sum of g: kernel u^(-(1-gam)-1) = u^(gam-2)
        m_ref2, c_ref2 = singular_cells(
            1.0, gam - 2.0, n, cfg.tail_floor, far_grading=far_g,
            split=cfg.split_radius, grading=cfg.grading_override(),
        )
        d2 = np.asarray(path_diff(g, t_out[:, None], t_out[:, None] + len_r[:, None] * c_ref2[None, :]), dtype=float)
        s_r = singular_sum(d2, len_r, m_ref2, c_ref2, cfg.tail_floor, gam - 2.0)
        dr_hat = (g_t - gb) + (1.0 - gam) * len_r ** (1.0 - gam) * s_r

        return pref * float(w_out @ (dl_hat * dr_hat))

    return refine_levels(evaluate, cfg.n_outer, cfg.tol)


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
