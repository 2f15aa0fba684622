"""Singular quadrature on graded meshes and on a uniform grid.

All integrals in this package reduce to the form

    integral_0^L  u^p * G(u) du

with an endpoint power weight u^p and a factor G that is bounded (and usually
Holder continuous) near u = 0.  On a graded mesh each cell contributes

    m_k * G(c_k),      m_k = integral of u^p over the cell,
                       c_k = u^p-weighted centroid of the cell,

both in closed form, so the rule is exact whenever G is affine on a cell.  The
mesh is algebraically graded toward u = 0, with edges L (k/n)^g and the
exponent g chosen so the composite rule is second order for the kernel's
power.  For p <= -1 (the Marchaud difference kernels) the edges are clipped at
a relative floor; `singular_sum` models the part below it (linearly in u).
On the uniform grid G is piecewise linear and u^p is integrated exactly
against each hat function (`hat_weights`), so the Marchaud sums at all nodes
are one FFT convolution (`marchaud_conv`, after Lubich 1986).  The graded
meshes serve the single-point operators (fractional integrals, Weyl
derivatives); the uniform grid serves the Young integral and the nonlinear
integral, whose four-term expansion is computed as sum_k int h_k(phi) dg_k
over the medium's separable terms, with the terms as rows of one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadResult",
    "power_cells",
    "singular_cells",
    "singular_sum",
    "two_sided_cells",
    "hat_weights",
    "marchaud_conv",
    "two_sided_grid_sum",
    "refine_levels",
]


# relative radius below which an inner difference integral switches to its
# near-singularity zone (the `split` of singular_cells)
SPLIT_RADIUS = 1.0 / 16.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for the singular quadrature.

    n_nodes is the cell count per singular direction of the graded
    one-dimensional integrals (fractional integrals, Weyl derivatives).
    n_outer sets the uniform grid, grid_cells() cells, on which the Young
    integral and the nonlinear integral's four-term expansion, computed as
    sum_k int h_k(phi) dg_k, are evaluated.  tail_floor is the relative scale
    below which differences are modeled by the local power law instead of
    being evaluated, and tol the relative node-doubling tolerance of the
    convergence flag.
    """

    n_nodes: int = 4096
    n_outer: int = 512
    tail_floor: float = 1e-12
    tol: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("n_nodes", "n_outer"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if not 0.0 < self.tail_floor < 1.0:
            raise ValueError("tail_floor must lie in (0, 1)")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")

    def grid_cells(self) -> int:
        """A uniform grid must resolve the finest scale everywhere: square the budget."""
        return max(8, self.n_outer**2 // 128 * 8)


@dataclass(frozen=True)
class QuadResult:
    """Value of a quadrature together with its node-doubling diagnostics."""

    value: float
    error_estimate: float
    converged: bool
    levels: tuple[float, ...] = ()

    def __float__(self) -> float:
        return self.value


def power_cells(edges: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact masses and centroids of u^p over the cells of an ascending mesh.

    Returns (mass, centroid) with mass_k = int_{e_k}^{e_k+1} u^p du and
    centroid_k = int u^{p+1} du / mass_k.  Requires p > -1 whenever the first
    edge is 0.
    """
    e = np.asarray(edges, dtype=float)
    width = e[1:] - e[:-1]
    mid = 0.5 * (e[1:] + e[:-1])
    with np.errstate(all="ignore"):
        if p == -1.0:
            mass = np.log(e[1:] / e[:-1])
        else:
            q = p + 1.0
            mass = (e[1:] ** q - e[:-1] ** q) / q
        q2 = p + 2.0
        first = (e[1:] ** q2 - e[:-1] ** q2) / q2
        centroid = first / mass
    # thin cells: the closed forms cancel catastrophically, midpoint rule is exact enough
    narrow = (width <= 1e-8 * np.abs(mid)) | ~np.isfinite(centroid)
    if np.any(narrow):
        mass = np.where(narrow, width * mid**p, mass)
        centroid = np.where(narrow, mid, centroid)
    # keep nodes strictly inside their cells despite rounding
    centroid = np.minimum(np.maximum(centroid, e[:-1]), e[1:])
    return mass, centroid


def graded_edges(lo: float, hi: float, n: int, g: float) -> np.ndarray:
    """n cells on [lo, hi] clustered toward hi with grading exponent g."""
    xi = (np.arange(n + 1) / n) ** g
    return hi - (hi - lo) * xi[::-1]


def singular_cells(
    length: float,
    p: float,
    n: int,
    floor_rel: float,
    far_grading: float = 1.0,
    split: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Cells for int_0^length u^p G(u) du with the singular point at u=0.

    The mesh is algebraically graded toward u=0 with the exponent giving a
    second-order composite rule: 2/(p+1) for integrable weights (p > -1,
    smooth G) and 2/(p+2) for difference kernels (p <= -1, where G vanishes
    linearly at 0 on the scales the mesh resolves).  If split < 1 the grading
    applies on [0, split*length] and the far band [split*length, length] is
    graded toward u=length with exponent far_grading, for integrands rough at
    the far end.

    For p > -1 the first cell starts at 0 and carries its exact weight mass,
    so nothing is dropped.  For p <= -1 cells are truncated at the relative
    floor and the caller must model the remaining [0, floor] tail.

    Returns (mass, centroid) arrays.
    """
    if length <= 0.0:
        raise ValueError("length must be positive")
    g = 2.0 / (p + 2.0) if p <= -1.0 else max(1.0, 2.0 / (p + 1.0))
    if split < 1.0:
        n_near = max(4, n // 2)
        n_far = max(4, n - n_near)
        near_hi = split * length
        edges_near = near_hi * (np.arange(n_near + 1) / n_near) ** g
        edges_far = graded_edges(near_hi, length, n_far, far_grading)
        edges = np.concatenate([edges_near, edges_far[1:]])
    else:
        edges = length * (np.arange(n + 1) / n) ** g
    if p <= -1.0:
        floor = floor_rel * length
        edges = np.unique(np.clip(edges, floor, length))
        if edges[0] > floor:
            edges = np.concatenate([[floor], edges])
        if edges.size < 2:
            edges = np.array([floor, length])
    mass, centroid = power_cells(edges, p)
    return mass, centroid


def singular_sum(diff, length, mass, centroid, floor_rel: float, p: float):
    """int_0^L D(u) u^p du for a difference D that vanishes at u = 0.

    (mass, centroid) are cells from singular_cells(ell, p, ...) and length is
    the factor they are scaled by, so L = length * ell and diff holds D at
    length * centroid along its last axis (a mesh built at the true scale
    passes length=1.0).  floor_rel * length is where the cells start.  length
    broadcasts against diff[..., 0], so one call serves a vector of outer
    nodes on one reference mesh.  Below the floor D is modeled as c * u with
    c fitted at the innermost resolved node: the generators this package
    works with (finite cosine series, piecewise-linear samples) are smooth
    below their finest scale, which lies far above the floor.
    """
    q = p + 2.0
    if q <= 0.0:
        raise ValueError("difference tail does not converge; check exponents")
    tail = diff[..., 0] / (length * centroid[0]) * (floor_rel * length) ** q / q
    return length ** (p + 1.0) * (diff @ mass) + tail


def two_sided_cells(
    a: float,
    b: float,
    p_a: float,
    p_b: float,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weights and nodes for int_a^b (t-a)^{p_a} (b-t)^{p_b} G(t) dt.

    The interval is split at its midpoint; each half extracts its own endpoint
    power exactly and folds the opposite (smooth there) power factor into the
    weight at the node.  Requires p_a, p_b > -1.

    Returns (weights, nodes, dist_a, dist_b) where dist_a = t - a and
    dist_b = b - t are carried in exact cell coordinates: deeply graded nodes
    can sit closer to an endpoint than float subtraction from the node could
    resolve, and the singular power factors must be formed from the true
    distances.
    """
    half = 0.5 * (b - a)
    # both powers exceed -1, so singular_cells ignores the floor
    m_lo, c_lo = singular_cells(half, p_a, n // 2, 0.0)
    t_lo = a + c_lo
    d_lo_b = (b - a) - c_lo
    w_lo = m_lo * d_lo_b**p_b
    m_hi, c_hi = singular_cells(half, p_b, n - n // 2, 0.0)
    t_hi = b - c_hi
    d_hi_a = (b - a) - c_hi
    w_hi = m_hi * d_hi_a**p_a
    nodes = np.concatenate([t_lo, t_hi[::-1]])
    weights = np.concatenate([w_lo, w_hi[::-1]])
    dist_a = np.concatenate([c_lo, d_hi_a[::-1]])
    dist_b = np.concatenate([d_lo_b, c_hi[::-1]])
    return weights, nodes, dist_a, dist_b


def hat_weights(p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo_k = int_k^(k+1) (k+1-u) u^p du and hi_k = int_k^(k+1) (u-k) u^p du.

    These are the moments of u^p against the two hat functions of each unit
    cell k = 0..n-1.  Requires p > -2, p != -1; for p < -1 lo_0 diverges and
    is returned as 0 (a Marchaud sum multiplies it by a zero difference).
    """
    q1, q2 = p + 1.0, p + 2.0
    if q2 <= 0.0 or q1 == 0.0:
        raise ValueError(f"hat weights need p > -2 and p != -1, got {p}")
    # Past cell 0 the closed forms cancel (about k^2 ulps lost); a series about
    # the midpoint m = k + 1/2 serves, t = 1/(2m): lo, hi = mass/2 -+ first with
    # mass = int_(|s|<1/2) (m+s)^p ds = m^p sum_(j even) binom(p, j) t^j / (j+1)
    # and first = int s (m+s)^p ds = m^p sum_(j odd) binom(p, j) t^j / (2 (j+2)).
    j = np.arange(36)  # in cell 1 the first term left out is below 1e-17 relative
    binom = np.cumprod(np.concatenate([[1.0], (p - j[:-1]) / (j[:-1] + 1.0)]))
    coef = np.stack([binom[0::2] / (j[0::2] + 1.0), binom[1::2] / (2.0 * (j[1::2] + 2.0))])
    m = np.arange(n) + 0.5
    t2 = (0.5 / m) ** 2
    series = np.repeat(coef[:, -1:], n, axis=1)
    for c in coef[:, -2::-1].T:  # Horner in t^2, in place: temporaries fragment the heap
        series *= t2
        series += c[:, None]
    mass, first = series
    scale = 0.5 * m**p
    mass *= scale
    first *= scale / m
    lo = mass - first
    mass += first
    lo[0], mass[0] = (1.0 / q1 - 1.0 / q2 if q1 > 0.0 else 0.0), 1.0 / q2
    return lo, mass


def marchaud_conv(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int_0^j [v(j) - v(j-u)] u^p du at every node j = 0..n, by one FFT.

    v interpolates values = v_0..v_n (the last axis; leading axes are
    independent rows) linearly between unit-spaced nodes and
    (lo, hi) = hat_weights(p, m > n).  With c_m = lo_m + hi_(m-1) the sum at
    j is sum_(m=1..j) c_m (v_j - v_(j-m)) - lo_j (v_j - v_0).
    """
    n = values.shape[-1] - 1
    c = lo[1 : n + 1] + hi[:n]
    conv = np.fft.irfft(np.fft.rfft(c, 2 * n) * np.fft.rfft(values[..., :-1], 2 * n), 2 * n)[..., :n]
    out = np.zeros(values.shape)
    np.multiply(values[..., 1:], np.cumsum(c), out=out[..., 1:])
    out[..., 1:] -= conv
    out[..., 1:] -= lo[1 : n + 1] * (values[..., 1:] - values[..., :1])
    return out


def two_sided_grid_sum(values: np.ndarray, p_a: float, p_b: float, w_a, w_b) -> float:
    """int_0^n u^p_a (n-u)^p_b F(u) du from F at the unit-spaced nodes 0..n, n even.

    Each half integrates its endpoint's power against the hat functions (w_a,
    w_b = hat_weights(p_a | p_b, m >= n/2)), the other power at the nodes."""
    half = (values.size - 1) // 2
    dist = 2 * half - np.arange(half + 1.0)  # to the far end
    left = (np.concatenate([w_a[0][:half], [0.0]]) + np.concatenate([[0.0], w_a[1][:half]])) * dist**p_b
    right = (np.concatenate([w_b[0][:half], [0.0]]) + np.concatenate([[0.0], w_b[1][:half]])) * dist**p_a
    return float(left @ values[: half + 1] + right @ values[::-1][: half + 1])


def refine_levels(
    evaluate: Callable[[int], float],
    n: int,
    tol: float,
    order: float | None = None,
) -> QuadResult:
    """Run `evaluate` at cell counts n/4, n/2, n and Richardson-extrapolate.

    At a known `order` the error estimate is the correction plus the coarser
    levels' change carried to the finest.  Otherwise the order is fitted from
    the two successive differences; if it is stable the extrapolated value is
    returned with the extrapolation step as the error estimate, otherwise the
    finest value with the last difference as the estimate.  `converged`
    reflects the node-doubling test at 10*tol relative to |value|.
    """
    ns = [max(8, n // 4), max(8, n // 2), n]
    vals = [evaluate(k) for k in ns]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    scale = max(abs(vals[2]), 1e-300)
    if abs(d2) <= 1e-15 * scale:
        return QuadResult(vals[2], abs(d2), True, tuple(vals))
    converged = bool(abs(d2) <= 10.0 * tol * scale)
    if order is not None:
        ratio = 2.0**order
        corr = d2 / (ratio - 1.0)
        err = abs(corr) + abs(d1) / (ratio * (ratio - 1.0))
        return QuadResult(vals[2] + corr, err, converged, tuple(vals))
    order = np.log2(abs(d1) / abs(d2)) if d1 != 0.0 else np.inf
    if 1.5 <= order <= 2.5:
        order = 2.0  # the composite rule's theoretical order; snapping keeps
        # extrapolation linear in the integrand when the fit is only noise
    if np.isfinite(order) and 0.5 <= order <= 4.5:
        corr = d2 / (2.0**order - 1.0)
        value = vals[2] + corr
        # the correction magnitude plus a cushion for order-fit noise
        err = abs(corr) + 0.5 * abs(d2)
    else:
        value = vals[2]
        err = 1.5 * abs(d2)
    return QuadResult(value, err, converged, tuple(vals))
