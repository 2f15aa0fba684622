"""Fractional Riemann-Liouville integrals and Weyl (Marchaud-form) derivatives.

Conventions: all operators return real values.  The complex phases that the
two-sided definitions formally carry always occur in matched pairs in the
composed formulas this package evaluates, where they multiply to -1; that sign
is applied explicitly at each composition site rather than tracked per
operator.

Each operator has one sided body that samples f at the n_nodes + 1 uniform
nodes t + side*u, u from 0 to the interval's length (side -1 looks left
toward a, +1 right toward b); the public left/right functions only fix the
side.  Every operator, and dl_dr_integral, which needs Marchaud sums at
every node, integrates its power kernel exactly against the hat functions
of a uniform grid (quadrature.hat_weights).  The gamma function is math.gamma.
"""

from __future__ import annotations

import functools
import math
from math import gamma

import numpy as np

from .paths import path_diff, sample_uniform
from .quadrature import (
    _CACHED_PLAN_CELLS,
    GridPlan,
    QuadratureConfig,
    QuadResult,
    _within_tol,
    grid_plan,
    hat_weights,
    marchaud_conv,
    marchaud_kernel,
    refine_levels,
)

# placeholders for the mesh builders that perfbench/spans.py wraps by name, its
# only reader; the benchmark change that moves spans.py onto a library-side
# trace (ROADMAP item 1) deletes them
singular_cells = two_sided_cells = None

__all__ = [
    "frac_integral_left",
    "frac_integral_right",
    "weyl_left",
    "weyl_right",
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


def _side_nodes(lo: float, hi: float, side: float, n: int) -> np.ndarray:
    """The n + 1 uniform nodes of a sided operator on [lo, hi], from its
    evaluation point t = nodes[0] to the far end, which is met exactly: hi
    down to lo for the left side, lo up to hi for the right one; rejects an
    empty or unbounded interval."""
    _require_interval(lo, hi, ("a", "t") if side < 0 else ("t", "b"))
    return np.linspace(hi, lo, n + 1) if side < 0 else np.linspace(lo, hi, n + 1)


def _finite(values, lo: float, hi: float) -> np.ndarray:
    """The samples as floats; f is sampled at both ends, so one that is
    infinite there (an integrable singularity) is rejected, not integrated."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"f must be finite on the closed interval [{lo}, {hi}], got a non-finite sample")
    return v


def _operator_weights(p: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """hat_weights(p, cells) for a single-point operator.  A loop of calls at
    one (alpha, n_nodes) reuses them: the last four pairs of grids of at most
    quadrature._CACHED_PLAN_CELLS cells are kept (0.26 MB at most), larger
    grids build theirs per call."""
    if cells <= _CACHED_PLAN_CELLS:
        return _kept_weights(p, cells)
    return hat_weights(p, cells)


@functools.lru_cache(maxsize=4)
def _kept_weights(p: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    return hat_weights(p, cells)


def _frac_integral(f, alpha: float, lo: float, hi: float, side: float, cfg: QuadratureConfig | None) -> QuadResult:
    cfg = cfg or QuadratureConfig()
    _require_order(alpha)
    n = cfg.n_nodes
    fv = _finite(f(_side_nodes(lo, hi, side, n)), lo, hi)
    length = hi - lo
    w_lo, w_hi = _operator_weights(alpha - 1.0, n)
    inv_gamma = 1.0 / gamma(alpha)

    def evaluate(m: int) -> float:
        fm = fv[:: n // m]
        return inv_gamma * (length / m) ** alpha * float(w_lo[:m] @ fm[:-1] + w_hi[:m] @ fm[1:])

    return refine_levels(evaluate, n, cfg.tol, order=2.0)


def frac_integral_left(f, alpha: float, a: float, t: float, cfg: QuadratureConfig | None = None) -> QuadResult:
    """(1/Gamma(alpha)) int_a^t (t-s)^(alpha-1) f(s) ds.

    Quadrature: substitute u = t - s, take f piecewise linear between
    cfg.n_nodes + 1 uniform nodes and integrate u^(alpha-1) exactly against
    each hat function.  The value is Richardson-refined at order 2 from three
    nested cell counts; error_estimate and the node-doubling convergence flag
    come from the same levels.  f is sampled at both ends, so it must be
    finite on the closed interval: a non-finite sample raises ValueError.
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
    n = cfg.n_nodes
    nodes = _side_nodes(lo, hi, side, n)
    t = float(nodes[0])
    ft = _scalar(f(t))
    d = _finite(path_diff(f, t, nodes), lo, hi)
    length = hi - lo
    weights = _operator_weights(-alpha - 1.0, n + 1)
    boundary = ft / length**alpha
    pref = 1.0 / gamma(1.0 - alpha)

    def evaluate(m: int) -> float:
        # the Marchaud sum int_0^length d(u) u^(-alpha-1) du at the grid's last node
        k, dm = marchaud_kernel(*weights, m), d[:: n // m]
        s_int = (length / m) ** -alpha * float(k.c @ dm[1:] - k.lo[-1] * dm[-1])
        return pref * (boundary + alpha * s_int)

    # error order 2 - alpha where f is smooth, 1 + mu at the far end of a
    # mu-Holder f, whose last cell the hat functions do not resolve
    res = refine_levels(evaluate, n, cfg.tol, order=min(2.0 - alpha, 1.0 + holder_mu))
    # the kernel amplifies rounding in f by the grid spacing's power, which
    # Richardson cannot see
    f_max = float(np.max(np.abs(ft - d)))
    round_off = np.finfo(float).eps * f_max * (length / n) ** -alpha
    err = res.error_estimate + round_off
    return QuadResult(res.value, err, _within_tol(err, res.value, cfg.tol), res.levels, res.cells)


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
    the extrapolation order min(2 - alpha, 1 + holder_mu).  As for
    frac_integral_left, f must be finite on the closed interval.
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

    f and g are sampled on the start grid of grid_rows, and on the odd
    nodes of each finer grid that dl_dr_sampled asks for; the samples go to
    dl_dr_sampled, which computes the integral from them.  Requires
    mu_f > gam and beta_g > 1 - gam for the inner integrals to converge.
    """
    cfg = cfg or QuadratureConfig()
    if not 0.0 < gam < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gam}")
    if mu_f <= gam:
        raise ValueError(f"need mu_f > gamma, got mu_f={mu_f}, gamma={gam}")
    if beta_g <= 1.0 - gam:
        raise ValueError(f"need beta_g > 1 - gamma, got beta_g={beta_g}, gamma={gam}")
    _require_interval(a, b)
    fv, gv = grid_rows((f, g), a, b, cfg)
    return dl_dr_sampled(fv, gv, gam, a, b, cfg, lambda n: odd_rows((f, g), a, b, n))


# The ladder's floor: below 4096 cells a level costs mostly fixed overhead,
# and the estimates of coarser grids fall short on rough media.
_MIN_START_CELLS = 4096


def _finest_scale(fns) -> float | None:
    """The largest `finest_frequency` (see paths.make_function) of fns: the
    cells per unit length that a uniform grid needs to resolve them all, or
    None if one of them has none (an unknown scale)."""
    finest = 0.0
    for fn in fns:
        freq = getattr(fn, "finest_frequency", None)
        if freq is None:
            return None
        finest = max(finest, freq)
    return finest


def _start_cells(fns, a: float, b: float, cap: int) -> int:
    """The start grid of the ladder up to `cap` cells: the coarsest cap/2^k
    cells that is a multiple of 8, at least _MIN_START_CELLS and at least
    (b - a) times the finest frequency of fns (_finest_scale).

    A callable without a finest_frequency has an unknown scale, and its grid
    starts at the cap.  The rule reads the inputs sampled on the grid only:
    a nonlinear integral's h_k(phi) is not considered, so a rough h along
    phi is left to the ladder's estimates.
    """
    finest = _finest_scale(fns)
    if finest is None:
        return cap
    n = cap
    while n % 16 == 0 and n // 2 >= max(_MIN_START_CELLS, (b - a) * finest):
        n //= 2
    return n


def grid_rows(fns, a: float, b: float, cfg: QuadratureConfig) -> np.ndarray:
    """Row k holds fns[k] at the N + 1 uniform nodes np.linspace(a, b, N + 1)
    of the start grid, N = _start_cells(fns, a, b, cfg.grid_cells()), each
    sampled through paths.sample_uniform."""
    n = _start_cells(fns, a, b, cfg.grid_cells())
    return _sample_rows(fns, np.linspace(a, b, n + 1), (b - a) / n)


def odd_rows(fns, a: float, b: float, n: int) -> np.ndarray:
    """fns at the n/2 odd nodes of np.linspace(a, b, n + 1), bitwise those
    nodes: a + i (b - a)/n for odd i, a uniform grid of step 2 (b - a)/n."""
    step = (b - a) / n
    ts = np.arange(1.0, n, 2.0)
    ts *= step
    ts += a
    return _sample_rows(fns, ts, 2.0 * step)


def _sample_rows(fns, ts: np.ndarray, step: float) -> np.ndarray:
    out = np.empty((len(fns), ts.size))
    for k, fn in enumerate(fns):
        out[k] = sample_uniform(fn, ts, step)
    return out


def _interleave(coarse: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Values at the nodes of the next dyadic grid (last axis) from those at
    the coarse nodes and at the new odd nodes."""
    out = np.empty((*coarse.shape[:-1], coarse.shape[-1] + odd.shape[-1]))
    out[..., ::2] = coarse
    out[..., 1::2] = odd
    return out


def dl_dr_sampled(fv, gv, gam: float, a: float, b: float, cfg: QuadratureConfig, odd) -> QuadResult:
    """dl_dr_integral from f and g sampled at the N0 + 1 nodes of a start grid
    of [a, b], such as grid_rows(..., a, b, cfg).

    Both Marchaud sums at every node are FFT convolutions, and the outer
    weights (t-a)^(-gam), (b-t)^(gam-1) are integrated exactly on each half
    of [a, b].  Levels N0/4, N0/2, N0 subsample the nodes and are
    extrapolated at the scheme's error order min(2-gam, 1+gam) by
    refine_levels.  The grid doubles up to cfg.grid_cells() cells until the
    estimate meets cfg.tol; each rung samples only the new nodes, by
    odd(n), which returns f and g at the odd nodes of the n-cell grid
    (odd_rows), and extends the hat weights by the new cells only.  The
    kernels, ramps and outer weights come from a quadrature.GridPlan, kept
    across solves (grid_plan) when the grid cannot grow.  The arguments are
    not validated again: dl_dr_integral states what they must satisfy.

    fv and gv may also hold K rows each; the result is then
    sum_k int f_k dg_k, with the rows' integrands summed at the nodes before
    the outer sum and the one extrapolation.
    """
    start = fv.shape[-1] - 1
    cap = cfg.grid_cells()
    plan = grid_plan(gam, start) if cap == start else GridPlan(gam, start)
    pref = -1.0 / (gamma(1.0 - gam) * gamma(gam))
    samples = [fv, gv]  # on the finest grid reached
    # the levels' arrays, sized for the cap; a level touches the pages it
    # uses.  work holds marchaud_conv's temporaries, then the g increments.
    rows = fv.size // (start + 1)
    dl_buf, dr_buf, work = (np.empty(k * (cap + 1)) for k in (rows, rows, max(rows, 8)))

    def evaluate(n: int) -> float:
        if n > samples[0].shape[-1] - 1:  # a new rung: n is twice the finest grid
            samples[:] = (_interleave(x, y) for x, y in zip(samples, odd(n)))
            plan.grow(n)
        stride = (samples[0].shape[-1] - 1) // n
        fn, gn = (x[..., ::stride] for x in samples)
        shape, size = fn.shape, fn.size
        # becomes (t-a)^gam Gamma(1-gam) DL f
        dl_hat = marchaud_conv(fn, plan.kernel(n, 0), dl_buf[:size].reshape(shape), work)
        dl_hat *= plan.ramp(n, 0)
        dl_hat += fn
        dr_hat = marchaud_conv(gn[..., ::-1], plan.kernel(n, 1), dr_buf[:size].reshape(shape), work)[..., ::-1]
        dr_hat *= plan.ramp(n, 1)
        dr_hat += np.subtract(gn, gn[..., -1:], out=work[:size].reshape(shape))
        dl_hat *= dr_hat
        return pref * plan.outer_sum(dl_hat.reshape(-1, n + 1).sum(axis=0))

    return refine_levels(evaluate, start, cfg.tol, min(2.0 - gam, 1.0 + gam), cap)
