"""Reference values for the benchmark, computed without importing nlyoung.

Every medium the workloads use is Lipschitz in time, so its nonlinear Young
integral is the classical integral of d/dt W(t, phi_t):

* product media W = g(t) h(x) with g a finite cosine series: the integrand
  h(phi(t)) g'(t) is smooth and g' is a finite sine series, so composite
  Gauss-Legendre quadrature converges to float precision;
* a bilinear grid medium along a piecewise-linear sampled path: between
  consecutive merged breakpoints (grid t-nodes, path sample times, and the
  times phi crosses an x-node) the integrand is linear in t, so the midpoint
  rule on each piece is exact.

Each reference is computed at two resolutions; `reference` raises if they
disagree by more than AGREE_TOL relative to max(1, |value|).
"""

from __future__ import annotations

import numpy as np

GL_NODES = 32
PANELS_PER_UNIT = (2048, 8192)
AGREE_TOL = 1e-12


class ReferenceMismatch(RuntimeError):
    """The two resolutions of a reference disagree."""


# ---------------------------------------------------------------------------
# function specs: {"kind": "weierstrass", "H", "scales", "base", "phases"}
# or {"kind": "identity"}


def _series(spec):
    k = np.arange(spec["scales"])
    return spec["base"] ** (-spec["H"] * k), spec["base"] ** k, spec["phases"]


def evaluate(spec, t):
    t = np.asarray(t, dtype=float)
    if spec["kind"] == "identity":
        return t
    out = np.zeros_like(t)
    for amp, freq, phase in zip(*_series(spec)):
        out += amp * np.cos(freq * t + phase)
    return out


def derivative(spec, t):
    t = np.asarray(t, dtype=float)
    if spec["kind"] == "identity":
        return np.ones_like(t)
    out = np.zeros_like(t)
    for amp, freq, phase in zip(*_series(spec)):
        out -= amp * freq * np.sin(freq * t + phase)
    return out


# ---------------------------------------------------------------------------
# product media


def product_integral(g, h, phi, a: float, b: float, panels_per_unit: int) -> float:
    """int_a^b h(phi(t)) g'(t) dt by composite Gauss-Legendre quadrature."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    panels = max(16, int(round(panels_per_unit * (b - a))))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x[None, :]
    integrand = evaluate(h, evaluate(phi, t)) * derivative(g, t)
    return float(np.sum(half * w[None, :] * integrand))


# ---------------------------------------------------------------------------
# bilinear grid medium along a piecewise-linear path


def _crossing_times(pts, pvals, xs):
    """Times at which the linear interpolant of (pts, pvals) crosses an x-node."""
    v0, v1 = pvals[:-1], pvals[1:]
    lo = np.searchsorted(xs, np.minimum(v0, v1), side="right")
    hi = np.searchsorted(xs, np.maximum(v0, v1), side="left")
    count = np.maximum(hi - lo, 0)
    seg = np.repeat(np.arange(v0.size), count)
    offset = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
    node = xs[lo[seg] + offset]
    frac = (node - v0[seg]) / (v1[seg] - v0[seg])
    return pts[seg] + frac * (pts[seg + 1] - pts[seg])


def grid_integral(ts, xs, values, pts, pvals, a: float, b: float, split: int) -> float:
    """int_a^b d/dt W(t, phi_t) dt, exact up to rounding; each merged piece is
    cut into `split` equal parts and integrated by the midpoint rule."""
    bp = np.concatenate([ts, pts, _crossing_times(pts, pvals, xs), [a, b]])
    bp = np.unique(bp[(bp >= a) & (bp <= b)])
    frac = (np.arange(split) + 0.5) / split
    width = np.diff(bp)
    mids = (bp[:-1, None] + width[:, None] * frac[None, :]).ravel()
    lengths = np.repeat(width / split, split)
    i = np.clip(np.searchsorted(ts, mids, side="right") - 1, 0, ts.size - 2)
    x = np.interp(mids, pts, pvals)
    j = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    wx = (x - xs[j]) / (xs[j + 1] - xs[j])
    dv = (1.0 - wx) * (values[i + 1, j] - values[i, j]) + wx * (
        values[i + 1, j + 1] - values[i, j + 1]
    )
    return float(np.sum(lengths * dv / (ts[i + 1] - ts[i])))


# ---------------------------------------------------------------------------


def reference(medium, a: float, b: float) -> float:
    """Reference value of int_a^b W(dt, phi_t) for a medium spec.

    `medium` is {"kind": "product", "g", "h", "phi"} with function specs, or
    {"kind": "grid", "ts", "xs", "values", "pts", "pvals"} with arrays.
    """
    if medium["kind"] == "product":
        coarse, fine = (
            product_integral(medium["g"], medium["h"], medium["phi"], a, b, n)
            for n in PANELS_PER_UNIT
        )
    else:
        args = [np.asarray(medium[k], dtype=float) for k in ("ts", "xs", "values", "pts", "pvals")]
        coarse, fine = (grid_integral(*args, a, b, split) for split in (1, 2))
    if abs(fine - coarse) > AGREE_TOL * max(1.0, abs(fine)):
        raise ReferenceMismatch(
            f"reference resolutions disagree on [{a}, {b}]: {coarse!r} vs {fine!r}"
        )
    return fine
