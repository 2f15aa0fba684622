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
for one order and grid: the four hat-weight pairs, which grow with the
grid, and, per Richardson level, both Marchaud kernels, both power ramps and
the outer weights; `grid_plan` keeps that of the last small grid, so many
solves on one grid build it once.  The grid serves the Young integral and
the nonlinear integral, whose four-term expansion is computed as
sum_k int h_k(phi) dg_k over the medium's separable terms, with the terms as
rows of one grid.  Every value is Richardson-extrapolated from three nested
levels at the scheme's known error order (`refine_levels`), and the grid
doubles from a start grid until the error estimate meets tol, up to a cap.
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
    "richardson",
    "refine_levels",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs for the uniform-grid quadrature.

    n_nodes is the cell count of the single-point operators (fractional
    integrals, Weyl derivatives), which sample f at n_nodes + 1 uniform nodes
    from the evaluation point to the far end; it is a multiple of 4, so that
    the levels n/4, n/2, n of refine_levels are exact.  n_outer sets the
    cap, grid_cells() cells, of the grid on which the Young integral and the
    nonlinear integral's four-term expansion, computed as
    sum_k int h_k(phi) dg_k, are evaluated.  tol picks that grid: it doubles
    from the inputs' finest scale while the error estimate exceeds
    tol * max(1, |value|), and `converged` says whether the estimate met
    that bound.
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
        """The cap of the uniform grid, which must resolve the finest scale
        everywhere: the budget squared."""
        return max(8, self.n_outer**2 // 128 * 8)


@dataclass(frozen=True)
class QuadResult:
    """Value of a quadrature together with its node-doubling diagnostics:
    the values of every level evaluated, coarsest first, and the cell count
    of the finest."""

    value: float
    error_estimate: float
    converged: bool
    levels: tuple[float, ...] = ()
    cells: int = 0

    def __float__(self) -> float:
        return self.value


def _series_terms(t: float, bits: int) -> int:
    """The fewest terms, an even number, of hat_weights' midpoint series for
    which, at t = 1/(2m) <= `t`, the first term left out is below 2^-bits
    relative.  For p in (-2, 1), |binom(p, j)| <= j + 1 (each factor has
    |p - i| < i + 2), so term j of either series is at most t^j against the
    leading term 1."""
    return 2 * math.ceil(bits * math.log(2.0) / (-2.0 * math.log(t)))


# Cells 1..63 (t <= 1/3) sum 36 terms, leaving out less than 2^-56 = eps/16.
# From _FAR_CELL on, 10 terms leave out less than 2^-69, a 2^-16 part of the
# last bit of a sum near 1, so they round as the 36 terms do (the tests pin
# the routes' powers bit for bit).
_FAR_CELL = 64
_NEAR_TERMS = _series_terms(1.0 / 3.0, 56)
_FAR_TERMS = _series_terms(0.5 / (_FAR_CELL + 0.5), 69)


def hat_weights(p: float, n: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo_k = int_k^(k+1) (k+1-u) u^p du and hi_k = int_k^(k+1) (u-k) u^p du.

    These are the moments of u^p against the two hat functions of each unit
    cell k = start..n-1.  A cell's weights do not depend on n or start, so a
    grid that doubles computes its new cells only.  Requires p > -2, p != -1;
    for p < -1 lo_0 diverges and is returned as 0 (a Marchaud sum multiplies
    it by a zero difference).  The arrays are read-only, since a kept
    GridPlan shares them.
    """
    q1, q2 = p + 1.0, p + 2.0
    if q2 <= 0.0 or q1 == 0.0:
        raise ValueError(f"hat weights need p > -2 and p != -1, got {p}")
    # Past cell 0 the closed forms cancel (about k^2 ulps lost); a series about
    # the midpoint m = k + 1/2 serves, t = 1/(2m): lo, hi = mass/2 -+ first with
    # mass = int_(|s|<1/2) (m+s)^p ds = m^p sum_(j even) binom(p, j) t^j / (j+1)
    # and first = int s (m+s)^p ds = m^p sum_(j odd) binom(p, j) t^j / (2 (j+2)).
    j = np.arange(_NEAR_TERMS)
    binom = np.cumprod(np.concatenate([[1.0], (p - j[:-1]) / (j[:-1] + 1.0)]))
    coef = np.stack([binom[0::2] / (j[0::2] + 1.0), binom[1::2] / (2.0 * (j[1::2] + 2.0))])
    m = np.arange(start, n) + 0.5
    t2 = (0.5 / m) ** 2
    near = max(0, min(n, _FAR_CELL) - start)  # the cells that take every term
    far = _FAR_TERMS // 2
    series = np.empty((2, m.size))
    series[:, :near], series[:, near:] = coef[:, -1:], coef[:, far - 1 : far]
    # Horner in t^2, in place (temporaries fragment the heap); the terms past
    # the far cells' take the near cells alone, so new far cells skip them
    for i in range((coef.shape[1] if near else far) - 2, -1, -1):
        cells = slice(None if i < far - 1 else near)
        series[:, cells] *= t2[cells]
        series[:, cells] += coef[:, i, None]
    mass, first = series
    scale = 0.5 * m**p
    mass *= scale
    first *= scale / m
    lo = mass - first
    mass += first
    if start == 0 and n > 0:
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


def marchaud_conv(values: np.ndarray, kernel: MarchaudKernel, out=None, work=None) -> np.ndarray:
    """int_0^j [v(j) - v(j-u)] u^p du at every node j = 0..n, by one FFT.

    v interpolates values = v_0..v_n (the last axis; leading axes are
    independent rows) linearly between unit-spaced nodes, and kernel is
    marchaud_kernel(lo, hi, n) for (lo, hi) = hat_weights(p, m > n).  The sum
    at j is sum_(m=1..j) c_m (v_j - v_(j-m)) - lo_j (v_j - v_0).  The result
    goes to `out` (values' shape) and every temporary to `work`, a float
    array of at least 8 * (n + 1) entries; each is allocated when not given,
    so a caller can reuse both across calls.  The rows are transformed one
    by one: numpy's FFT of a stack allocates a scratch of several rows on
    every call.
    """
    n = values.shape[-1] - 1
    if work is None:
        work = np.empty(8 * (n + 1))
    if out is None:
        out = np.empty(values.shape)
    # a row's spectrum and zero-padded row, then the kernel's
    spectrum = work[: 2 * (n + 1)].view(complex)
    padded = work[2 * (n + 1) : 2 * (n + 1) + 2 * n]
    kernel_spectrum, total = kernel.spectrum, kernel.total
    if kernel_spectrum is None:
        kernel_spectrum = work[4 * (n + 1) : 6 * (n + 1)].view(complex)
        kernel_padded = work[6 * (n + 1) : 6 * (n + 1) + 2 * n]
        kernel_padded[:n] = kernel.c
        kernel_padded[n:] = 0.0
        np.fft.rfft(kernel_padded, out=kernel_spectrum)
        total = np.cumsum(kernel.c, out=kernel_padded[:n])
    for v, row in zip(values.reshape(-1, n + 1), out.reshape(-1, n + 1)):
        padded[:n] = v[:-1]
        padded[n:] = 0.0
        np.fft.rfft(padded, out=spectrum)
        np.multiply(kernel_spectrum, spectrum, out=spectrum)
        conv = np.fft.irfft(spectrum, 2 * n, out=padded)[:n]
        row[0] = 0.0
        np.multiply(v[1:], total, out=row[1:])
        row[1:] -= conv
        jump = np.subtract(v[1:], v[:1], out=conv)  # conv is spent
        jump *= kernel.lo
        row[1:] -= jump
    return out


class GridPlan:
    """The operator of fraccalc.dl_dr_sampled at order gam on a grid of `cells` unit cells.

    It owns the four hat-weight pairs: those of u^(-gam-1) and u^(gam-2),
    the left and right Marchaud kernels, on cells + 1 cells, and those of
    u^(-gam) and u^(gam-1), the outer weights, on cells/2.  A cell's weights
    do not depend on the number of cells, so these serve every level n that
    divides `cells`, and `grow` extends them by the new cells only.  From
    them come, at level n, each side's Marchaud kernel and power ramp and
    the outer weights.  A kept plan (see grid_plan) keeps each of these
    parts once built; any other builds a part when asked and holds none, so
    a large grid's solve holds only the part in use.  Every array is
    read-only.
    """

    def __init__(self, gam: float, cells: int, keep: bool = False) -> None:
        self.gam = gam
        self.weights = tuple((np.empty(0), np.empty(0)) for _ in range(4))
        self._parts: dict | None = {} if keep else None
        self.grow(cells)

    def grow(self, cells: int) -> None:
        """Extend the hat weights to a grid of `cells` cells."""
        gam = self.gam
        powers = (-gam - 1.0, gam - 2.0, -gam, gam - 1.0)
        sizes = (cells + 1, cells + 1, cells // 2, cells // 2)
        grown = []
        for p, size, pair in zip(powers, sizes, self.weights):
            new = hat_weights(p, size, start=pair[0].size)
            if pair[0].size:
                new = tuple(np.concatenate(arrs) for arrs in zip(pair, new))
                for arr in new:
                    arr.flags.writeable = False
            grown.append(new)
        self.weights = tuple(grown)

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


def _within_tol(error_estimate: float, value: float, tol: float) -> bool:
    """The stop rule of refine_levels and the meaning of `converged`."""
    return bool(error_estimate <= tol * max(1.0, abs(value)))


def richardson(coarse, mid, fine, order: float | None = None):
    """(fine + corr, |corr|) with corr = (fine - mid) / (2^order - 1), entrywise
    for arrays: the Richardson extrapolation of three levels whose cells halve.

    Without a known `order` it is fitted on the last entries as
    log2(|mid - coarse| / |fine - mid|); where that fails or falls outside
    [0.05, 4], the result is (fine, |fine - mid|).
    """
    d2 = fine - mid
    if order is None:
        d1, d2_last = (mid - coarse, d2) if np.ndim(d2) == 0 else (mid[-1] - coarse[-1], d2[-1])
        ratio = abs(d1) / abs(d2_last) if d2_last != 0.0 else math.inf
        order = math.log2(ratio) if 0.0 < ratio < math.inf else math.nan
        if not 0.05 <= order <= 4.0:
            return fine, abs(d2)
    corr = d2 / (2.0**order - 1.0)
    return fine + corr, abs(corr)


def refine_levels(
    evaluate: Callable[[int], float],
    n: int,
    tol: float,
    order: float,
    cap: int | None = None,
) -> QuadResult:
    """Run `evaluate` at cell counts n/4, n/2, n (n a multiple of 4) and
    Richardson-extrapolate the finest three at the scheme's known error `order`.

    While the error estimate exceeds tol * max(1, |value|) and 2n <= cap
    (default n, one grid), n doubles and only the new finest level is
    evaluated: the other two are known.  The error
    estimate is the correction plus the coarser levels' change carried to
    the finest, and `converged` says that it met the stop rule.
    """
    cap = n if cap is None else cap
    ratio = 2.0**order
    vals = [evaluate(n // 4), evaluate(n // 2)]
    while True:
        vals.append(evaluate(n))
        d2 = vals[-1] - vals[-2]
        if abs(d2) <= 1e-15 * max(abs(vals[-1]), 1e-300):  # a rounding-level change: the error itself
            value, err = vals[-1], abs(d2)
        else:
            value, err = richardson(*vals[-3:], order)
            err += abs(vals[-2] - vals[-3]) / (ratio * (ratio - 1.0))
        converged = _within_tol(err, value, tol)
        if converged or 2 * n > cap:
            return QuadResult(value, err, converged, tuple(vals), n)
        n *= 2
