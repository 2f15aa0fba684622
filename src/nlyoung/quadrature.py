"""Singular quadrature on a uniform grid.

All integrals in this package reduce to the form

    integral_0^L  u^p * G(u) du

with an endpoint power weight u^p and a factor G that is bounded (and usually
Holder continuous) near u = 0.  G is sampled at uniform nodes and taken
piecewise linear between them, and u^p is integrated exactly against each hat
function (`hat_weights`).  For p <= -1 (the Marchaud difference kernels) G
vanishes at u = 0 and the first cell's moment of u^(p+1) closes the sum.  A
single point's operator is one dot product of the weights with the samples
(the fractional integrals, the Weyl derivatives); the Marchaud sums at all nodes are one FFT convolution
(`marchaud_conv`, after Lubich 1986), and the outer weights of a two-sided
integral are exact on each half of the grid.  A `GridPlan` holds the latter
for one order and grid: the four hat-weight pairs and, per Richardson level,
both Marchaud kernels, both power ramps and the outer weights; `grid_plan`
keeps that of the last small grid, so many solves on one grid build it once.
The grid serves the Young integral and the nonlinear integral, whose
four-term expansion is computed as sum_k int h_k(phi) dg_k over the medium's
separable terms, with the terms as rows of one grid.  Every value is
Richardson-extrapolated from three nested levels at the scheme's known error
order (`refine_levels`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureConfig",
    "QuadResult",
    "hat_weights",
    "marchaud_kernel",
    "marchaud_conv",
    "GridPlan",
    "grid_plan",
    "refine_levels",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for the uniform-grid quadrature.

    n_nodes is the cell count of the single-point operators (fractional
    integrals, Weyl derivatives), which sample f at n_nodes + 1 uniform nodes
    from the evaluation point to the far end; it is a multiple of 4, so that
    the levels n/4, n/2, n of refine_levels are exact.  n_outer sets the
    grid, grid_cells() cells, on which the Young integral and the nonlinear
    integral's four-term expansion, computed as sum_k int h_k(phi) dg_k, are
    evaluated.  tol is the relative node-doubling tolerance of the
    convergence flag.
    """

    n_nodes: int = 4096
    n_outer: int = 512
    tol: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("n_nodes", "n_outer"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        if self.n_nodes % 4:
            raise ValueError(f"n_nodes must be a multiple of 4, got {self.n_nodes}")
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


def hat_weights(p: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo_k = int_k^(k+1) (k+1-u) u^p du and hi_k = int_k^(k+1) (u-k) u^p du.

    These are the moments of u^p against the two hat functions of each unit
    cell k = 0..n-1.  Requires p > -2, p != -1; for p < -1 lo_0 diverges and
    is returned as 0 (a Marchaud sum multiplies it by a zero difference).
    The arrays are read-only, since a kept GridPlan shares them.
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
    lo.flags.writeable = mass.flags.writeable = False
    return lo, mass


class MarchaudKernel(NamedTuple):
    """marchaud_conv's kernel on n cells, with c_m = lo_m + hi_(m-1), m = 1..n.

    It holds lo_1..lo_n and either c, from which marchaud_conv builds the
    spectrum rfft(c, 2n) and the partial sums cumsum(c) where it uses them
    and frees them after, or (the kernels of a kept GridPlan) those two."""

    lo: np.ndarray
    c: np.ndarray | None
    spectrum: np.ndarray | None = None
    total: np.ndarray | None = None


def marchaud_kernel(lo: np.ndarray, hi: np.ndarray, n: int, keep: bool = False) -> MarchaudKernel:
    """The kernel of u^p on n cells from (lo, hi) = hat_weights(p, m > n),
    holding its spectrum and partial sums if it is to be kept."""
    c = lo[1 : n + 1] + hi[:n]
    if not keep:
        return MarchaudKernel(lo[1 : n + 1], c)
    return MarchaudKernel(lo[1 : n + 1], None, np.fft.rfft(c, 2 * n), np.cumsum(c))


def marchaud_conv(values: np.ndarray, kernel: MarchaudKernel) -> np.ndarray:
    """int_0^j [v(j) - v(j-u)] u^p du at every node j = 0..n, by one FFT.

    v interpolates values = v_0..v_n (the last axis; leading axes are
    independent rows) linearly between unit-spaced nodes, and kernel is
    marchaud_kernel(lo, hi, n) for (lo, hi) = hat_weights(p, m > n).  The sum
    at j is sum_(m=1..j) c_m (v_j - v_(j-m)) - lo_j (v_j - v_0).
    """
    n = values.shape[-1] - 1
    if kernel.spectrum is None:  # a temporary, freed once multiplied
        conv = np.fft.rfft(kernel.c, 2 * n) * np.fft.rfft(values[..., :-1], 2 * n)
    else:
        conv = kernel.spectrum * np.fft.rfft(values[..., :-1], 2 * n)
    conv = np.fft.irfft(conv, 2 * n)[..., :n]
    out = np.zeros(values.shape)
    total = np.cumsum(kernel.c) if kernel.total is None else kernel.total
    np.multiply(values[..., 1:], total, out=out[..., 1:])
    out[..., 1:] -= conv
    out[..., 1:] -= kernel.lo * (values[..., 1:] - values[..., :1])
    return out


class GridPlan:
    """The operator of fraccalc.dl_dr_sampled at order gam on a grid of `cells` unit cells.

    It owns the four hat-weight pairs: those of u^(-gam-1) and u^(gam-2),
    the left and right Marchaud kernels, on cells + 1 cells, and those of
    u^(-gam) and u^(gam-1), the outer weights, on cells/2.  A cell's weights
    do not depend on the number of cells, so these serve every level n that
    divides `cells`.  From them come, at level n, each side's Marchaud
    kernel and power ramp and the outer weights.  A kept plan (see
    grid_plan) keeps each of these parts once built; any other builds a
    part when asked and holds none, so a large grid's solve holds only the
    part in use.  Every array is read-only.
    """

    def __init__(self, gam: float, cells: int, keep: bool = False) -> None:
        self.gam = gam
        self.weights = (
            hat_weights(-gam - 1.0, cells + 1),
            hat_weights(gam - 2.0, cells + 1),
            hat_weights(-gam, cells // 2),
            hat_weights(gam - 1.0, cells // 2),
        )
        self._parts: dict | None = {} if keep else None

    def _part(self, key, build):
        if self._parts is not None and key in self._parts:
            return self._parts[key]
        part = build()
        for arr in part if isinstance(part, tuple) else (part,):
            if arr is not None:
                arr.flags.writeable = False
        if self._parts is not None:
            self._parts[key] = part
        return part

    def kernel(self, n: int, side: int) -> MarchaudKernel:
        """The Marchaud kernel of u^(-gam-1) (side 0, toward a) or u^(gam-2) (side 1) on n cells."""
        keep = self._parts is not None
        return self._part(("kernel", n, side), lambda: marchaud_kernel(*self.weights[side], n, keep))

    def ramp(self, n: int, side: int) -> np.ndarray:
        """gam j^gam (side 0) or (1-gam) (n-j)^(1-gam) (side 1) at the nodes j = 0..n."""

        def build():
            j = np.arange(n + 1.0)
            if side == 0:
                return self.gam * j**self.gam
            return (1.0 - self.gam) * j[::-1] ** (1.0 - self.gam)

        return self._part(("ramp", n, side), build)

    def outer(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) with int_0^n u^(-gam) (n-u)^(gam-1) F(u) du = left @ F_0..F_(n/2)
        + right @ F_n..F_(n/2), for F piecewise linear between the nodes 0..n, n even.

        Each half integrates its endpoint's power against the hat functions,
        the other power at the nodes."""

        def build():
            half = n // 2
            a, b = (
                np.concatenate([lo[:half], [0.0]]) + np.concatenate([[0.0], hi[:half]])
                for lo, hi in self.weights[2:]
            )
            dist = 2 * half - np.arange(half + 1.0)  # to the far end
            return a * dist ** (self.gam - 1.0), b * dist ** (-self.gam)

        return self._part(("outer", n), build)

    def outer_sum(self, values: np.ndarray) -> float:
        """int_0^n u^(-gam) (n-u)^(gam-1) F(u) du from F at the nodes 0..n (values), n even."""
        half = (values.size - 1) // 2
        left, right = self.outer(values.size - 1)
        return float(left @ values[: half + 1] + right @ values[::-1][: half + 1])


# An indefinite integral makes one solve per subinterval, all on one grid at
# one order, so the plan of a grid of up to _CACHED_PLAN_CELLS cells is kept,
# the last one only: a 4096-cell plan holds 0.81 MB once its three levels are
# built, 0.29 MB of it hat weights.  Larger grids build their plan for each
# solve; it holds their hat weights, and each other part only while in use.
_CACHED_PLAN_CELLS = 4097


def grid_plan(gam: float, cells: int) -> GridPlan:
    """The GridPlan of order gam on `cells` cells: kept for small grids, new for others."""
    if cells <= _CACHED_PLAN_CELLS:
        return _kept_plan(gam, cells)
    return GridPlan(gam, cells)


@functools.lru_cache(maxsize=1)
def _kept_plan(gam: float, cells: int) -> GridPlan:
    return GridPlan(gam, cells, keep=True)


def refine_levels(
    evaluate: Callable[[int], float],
    n: int,
    tol: float,
    order: float,
) -> QuadResult:
    """Run `evaluate` at cell counts n/4, n/2, n (n a multiple of 4) and
    Richardson-extrapolate at the scheme's known error `order`.

    The error estimate is the correction plus the coarser levels' change
    carried to the finest.  `converged` reflects the node-doubling test at
    10*tol relative to |value|.
    """
    vals = [evaluate(k) for k in (n // 4, n // 2, n)]
    d1 = vals[1] - vals[0]
    d2 = vals[2] - vals[1]
    scale = max(abs(vals[2]), 1e-300)
    if abs(d2) <= 1e-15 * scale:
        return QuadResult(vals[2], abs(d2), True, tuple(vals))
    converged = bool(abs(d2) <= 10.0 * tol * scale)
    ratio = 2.0**order
    corr = d2 / (ratio - 1.0)
    err = abs(corr) + abs(d1) / (ratio * (ratio - 1.0))
    return QuadResult(vals[2] + corr, err, converged, tuple(vals))
