"""Two-parameter media W(t, x): evaluation and cancellation-safe increments.

Besides eval(t, x), a medium offers three increment calls:

    increment_t(s, t, x)        = W(t, x) - W(s, x)
    increment_x(t, x, y)        = W(t, y) - W(t, x)
    increment_rect(s, t, x, y)  = W(s, x) - W(t, x) - W(s, y) + W(t, y)

The singular kernels divide these increments by powers of |t - s| and |x - y|,
so subclasses arrange the arithmetic to preserve their smallness (factored
products, nodal second differences) instead of subtracting four large values.

Media that are finite sums of products W(t, x) = sum_k g_k(t) h_k(x) also
list their terms through separable_terms(): a product has one term, sums and
differences concatenate their parts' terms, a diagonal medium weights each
term of its base by the density, and a grid expands exactly into its
interpolated columns times the hats of its x nodes.  The four-term fractional
expansion of int W(dt, phi_t) is linear in W, so the fractional route
computes it as sum_k int h_k(phi) dg_k over these terms; the sewing sums
reuse nodes for a single term.  The field seminorm reads every term, so its
probes are matrix products of the terms' increments and never go through the
increment calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fraccalc import _require_interval
from .paths import PathLike, SampledPath, make_function, parse_descriptor, path_diff

__all__ = [
    "Field",
    "ProductField",
    "SumField",
    "DifferenceField",
    "GridField",
    "Regularity",
    "RegularityError",
    "FieldHolderReport",
    "holder_seminorm_field",
    "make_field",
    "read_grid_json",
    "write_grid_json",
]


class RegularityError(ValueError):
    """Raised when declared Holder exponents violate an admissibility window."""


@dataclass(frozen=True)
class Regularity:
    """Exponent bundle (tau, lam, gamma, alpha).

    tau, lam are the time/space Holder orders of the medium, gamma the path
    order, and alpha the fractional order used by the four-term formula.  If
    alpha is omitted it defaults to the midpoint of the admissible window
    (1 - tau, lam * gamma).
    """

    tau: float
    lam: float
    gamma: float
    alpha: float | None = None

    def __post_init__(self) -> None:
        for name in ("tau", "lam", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.alpha is None:
            lo, hi = self.alpha_window()
            object.__setattr__(self, "alpha", 0.5 * (lo + hi))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def alpha_window(self) -> tuple[float, float]:
        return 1.0 - self.tau, self.lam * self.gamma

    def admissible(self) -> bool:
        lo, hi = self.alpha_window()
        return self.epsilon() > 0.0 and lo < self.alpha < hi

    def epsilon(self) -> float:
        return self.tau + self.lam * self.gamma - 1.0

    def require_admissible(self) -> None:
        if self.epsilon() <= 0.0:
            raise RegularityError(
                f"tau + lam*gamma = {self.tau + self.lam * self.gamma:g} "
                "must exceed 1"
            )
        lo, hi = self.alpha_window()
        if not lo < self.alpha < hi:
            raise RegularityError(
                f"alpha={self.alpha:g} outside admissible window ({lo:g}, {hi:g})"
            )


class Field:
    """Base medium; subclasses must provide eval and should override increments."""

    descriptor: str = "field"

    def eval(self, t, x):
        raise NotImplementedError

    def increment_t(self, s, t, x):
        """W(t, x) - W(s, x)."""
        return self.eval(t, x) - self.eval(s, x)

    def increment_x(self, t, x, y):
        """W(t, y) - W(t, x)."""
        return self.eval(t, y) - self.eval(t, x)

    def increment_rect(self, s, t, x, y):
        """W(s,x) - W(t,x) - W(s,y) + W(t,y)."""
        return self.increment_t(t, s, x) - self.increment_t(t, s, y)

    def separable_terms(self):
        """The terms (g_k, h_k) of W(t, x) = sum_k g_k(t) h_k(x), else None.

        The nonlinear integral is then sum_k int h_k(phi) dg_k, which the
        fractional route evaluates; a medium without terms must be sampled
        into a GridField first.
        """
        return None


class ProductField(Field):
    """W(t, x) = g(t) h(x); increments in factored form for exact cancellation."""

    def __init__(self, g: PathLike, h: PathLike) -> None:
        self.g = g
        self.h = h
        gd = getattr(g, "descriptor", "g")
        hd = getattr(h, "descriptor", "h")
        self.descriptor = f"product:g=({gd}),h=({hd})"

    def eval(self, t, x):
        return self.g(t) * self.h(x)

    def increment_t(self, s, t, x):
        return path_diff(self.g, t, s) * self.h(x)

    def increment_x(self, t, x, y):
        return self.g(t) * path_diff(self.h, y, x)

    def increment_rect(self, s, t, x, y):
        return path_diff(self.g, s, t) * path_diff(self.h, x, y)

    def separable_terms(self):
        return [(self.g, self.h)]


class SumField(Field):
    def __init__(self, a: Field, b: Field) -> None:
        self.a = a
        self.b = b
        self.descriptor = f"sum:a=({a.descriptor}),b=({b.descriptor})"

    def eval(self, t, x):
        return self.a.eval(t, x) + self.b.eval(t, x)

    def increment_t(self, s, t, x):
        return self.a.increment_t(s, t, x) + self.b.increment_t(s, t, x)

    def increment_x(self, t, x, y):
        return self.a.increment_x(t, x, y) + self.b.increment_x(t, x, y)

    def increment_rect(self, s, t, x, y):
        return self.a.increment_rect(s, t, x, y) + self.b.increment_rect(s, t, x, y)

    def separable_terms(self):
        ta, tb = self.a.separable_terms(), self.b.separable_terms()
        if ta is None or tb is None:
            return None
        return ta + tb


class _Negated:
    """x -> -h(x), keeping h's cancellation-safe diff when it has one."""

    def __init__(self, h: PathLike) -> None:
        self.h = h
        if hasattr(h, "diff"):
            self.diff = lambda t, s: -h.diff(t, s)

    def __call__(self, x):
        return -self.h(x)


class DifferenceField(Field):
    """W1 - W2, with increments differenced term by term."""

    def __init__(self, a: Field, b: Field) -> None:
        self.a = a
        self.b = b
        self.descriptor = f"diff:a=({a.descriptor}),b=({b.descriptor})"

    def eval(self, t, x):
        return self.a.eval(t, x) - self.b.eval(t, x)

    def increment_t(self, s, t, x):
        return self.a.increment_t(s, t, x) - self.b.increment_t(s, t, x)

    def increment_x(self, t, x, y):
        return self.a.increment_x(t, x, y) - self.b.increment_x(t, x, y)

    def increment_rect(self, s, t, x, y):
        return self.a.increment_rect(s, t, x, y) - self.b.increment_rect(s, t, x, y)

    def separable_terms(self):
        ta, tb = self.a.separable_terms(), self.b.separable_terms()
        if ta is None or tb is None:
            return None
        return ta + [(g, _Negated(h)) for g, h in tb]


class GridField(Field):
    """Bilinear interpolation of nodal values W(ts[i], xs[j]).

    Increments are assembled from nodal differences (rows differenced before
    interpolation, mixed second differences for rectangles) so that the
    common interpolation terms cancel symbolically rather than in floats.
    """

    def __init__(self, ts, xs, values, descriptor: str | None = None) -> None:
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.ts.ndim != 1 or self.xs.ndim != 1:
            raise ValueError("ts and xs must be one-dimensional")
        if self.ts.size < 2 or self.xs.size < 2:
            raise ValueError("grid axes need at least two nodes each")
        if self.values.shape != (self.ts.size, self.xs.size):
            raise ValueError("values must have shape (len(ts), len(xs))")
        if not (np.all(np.diff(self.ts) > 0) and np.all(np.diff(self.xs) > 0)):
            raise ValueError("grid axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        for arr in (self.ts, self.xs, self.values):
            arr.flags.writeable = False
        self.descriptor = descriptor or f"grid:{self.ts.size}x{self.xs.size}"

    def _locate(self, axis: np.ndarray, v):
        arr = np.asarray(v, dtype=float)
        lo, hi = axis[0], axis[-1]
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        if np.min(arr) < lo - slack or np.max(arr) > hi + slack:
            raise ValueError(f"grid evaluation outside [{lo:g}, {hi:g}]")
        idx = np.clip(np.searchsorted(axis, arr, side="right") - 1, 0, axis.size - 2)
        frac = (arr - axis[idx]) / (axis[idx + 1] - axis[idx])
        return idx, frac

    def eval(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        t, x = np.broadcast_arrays(t, x)
        i, u = self._locate(self.ts, t)
        j, w = self._locate(self.xs, x)
        v = self.values
        out = (
            (1 - u) * (1 - w) * v[i, j]
            + u * (1 - w) * v[i + 1, j]
            + (1 - u) * w * v[i, j + 1]
            + u * w * v[i + 1, j + 1]
        )
        return out if out.ndim else float(out)

    def _rowdiff_at(self, p, q, j, w):
        """(R_p - R_q)(x): x-interp of the nodal row difference V[p]-V[q]."""
        v = self.values
        d0 = v[p, j] - v[q, j]
        d1 = v[p, j + 1] - v[q, j + 1]
        return d0 + w * (d1 - d0)

    def increment_t(self, s, t, x):
        s, t, x = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        )
        it, u = self._locate(self.ts, t)
        is_, v = self._locate(self.ts, s)
        j, w = self._locate(self.xs, x)
        cross = (
            self._rowdiff_at(it, is_, j, w)
            + u * self._rowdiff_at(it + 1, it, j, w)
            - v * self._rowdiff_at(is_ + 1, is_, j, w)
        )
        dt_cell = self.ts[it + 1] - self.ts[it]
        local = ((t - s) / dt_cell) * self._rowdiff_at(it + 1, it, j, w)
        out = np.where(it == is_, local, cross)
        return out if out.ndim else float(out)

    def increment_x(self, t, x, y):
        t, x, y = np.broadcast_arrays(
            np.asarray(t, dtype=float), np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )
        i, u = self._locate(self.ts, t)
        jx, wx = self._locate(self.xs, x)
        jy, wy = self._locate(self.xs, y)
        v = self.values

        def col_diff(p):
            # row p interpolated at y minus at x, nodal differences first
            base = v[p, jy] - v[p, jx]
            corr = wy * (v[p, jy + 1] - v[p, jy]) - wx * (v[p, jx + 1] - v[p, jx])
            local = (wy - wx) * (v[p, jx + 1] - v[p, jx])
            return np.where(jx == jy, local, base + corr)

        out = (1 - u) * col_diff(i) + u * col_diff(i + 1)
        return out if out.ndim else float(out)

    def _nodal_rect(self, p, q, j1, j2):
        v = self.values
        return (v[p, j1] - v[q, j1]) - (v[p, j2] - v[q, j2])

    def _E(self, p, q, jx, wx, jy, wy):
        """(R_p - R_q)(x) - (R_p - R_q)(y) from nodal second differences."""
        cross = (
            self._nodal_rect(p, q, jx, jy)
            + wx * self._nodal_rect(p, q, jx + 1, jx)
            - wy * self._nodal_rect(p, q, jy + 1, jy)
        )
        local = (wx - wy) * self._nodal_rect(p, q, jx + 1, jx)
        return np.where(jx == jy, local, cross)

    def increment_rect(self, s, t, x, y):
        s, t, x, y = np.broadcast_arrays(
            np.asarray(s, dtype=float),
            np.asarray(t, dtype=float),
            np.asarray(x, dtype=float),
            np.asarray(y, dtype=float),
        )
        it, u = self._locate(self.ts, t)
        is_, vv = self._locate(self.ts, s)
        jx, wx = self._locate(self.xs, x)
        jy, wy = self._locate(self.xs, y)
        cross = (
            self._E(is_, it, jx, wx, jy, wy)
            + vv * self._E(is_ + 1, is_, jx, wx, jy, wy)
            - u * self._E(it + 1, it, jx, wx, jy, wy)
        )
        dt_cell = self.ts[it + 1] - self.ts[it]
        local = ((s - t) / dt_cell) * self._E(it + 1, it, jx, wx, jy, wy)
        out = np.where(it == is_, local, cross)
        return out if out.ndim else float(out)

    def separable_terms(self):
        """Column k interpolated in t times the hat at xs[k]: bilinear exactly."""
        hats = np.eye(self.xs.size)
        return [
            (SampledPath(self.ts, self.values[:, k]), SampledPath(self.xs, hats[k]))
            for k in range(self.xs.size)
        ]


# ---------------------------------------------------------------------------
# field seminorm estimation


@dataclass(frozen=True)
class FieldHolderReport:
    """Probe-grid estimates of the three seminorm components of a medium."""

    rect_term: float
    time_term: float
    space_term: float
    n_pairs_checked: int

    @property
    def norm(self) -> float:
        """Estimate of the full three-term seminorm."""
        return self.rect_term + self.time_term + self.space_term

    @property
    def bracket(self) -> float:
        """Estimate of the rectangular-term seminorm alone."""
        return self.rect_term


# the probe grid of holder_seminorm_field
_N_COARSE = 40
_N_FINE = 384
_MAX_LAG = 16
_BLOCK = 2_000_000  # entries per block of a probe-term product


def _axis_pairs(lo: float, hi: float):
    """Deterministic probe pairs on [lo, hi]: all coarse pairs + fine small lags."""
    coarse = np.linspace(lo, hi, _N_COARSE + 1)
    i, j = np.triu_indices(coarse.size, k=1)
    s = [coarse[i]]
    t = [coarse[j]]
    fine = np.linspace(lo, hi, _N_FINE + 1)
    for lag in range(1, _MAX_LAG + 1):
        idx = np.arange(0, fine.size - lag, 4)
        s.append(fine[idx])
        t.append(fine[idx + lag])
    return np.concatenate(s), np.concatenate(t)


def _max_abs_product(left: np.ndarray, right: np.ndarray) -> float:
    """max |left @ right|, in row blocks of at most _BLOCK entries.

    With one inner term the product is an outer product, whose largest
    entry is the product of the two largest factors.
    """
    if left.shape[1] == 1:
        return float(np.max(np.abs(left))) * float(np.max(np.abs(right)))
    rows = max(1, _BLOCK // right.shape[1])
    return float(np.max([
        np.max(np.abs(left[i:i + rows] @ right)) for i in range(0, left.shape[0], rows)
    ]))


def holder_seminorm_field(
    w: Field,
    reg: Regularity,
    a: float,
    b: float,
    box: tuple[float, float],
) -> FieldHolderReport:
    """Probe-grid estimates of the rectangular, time and space seminorm terms.

    The medium enters through its separable terms W = sum_k g_k(t) h_k(x):
    with dG[p, k] = (g_k(t_p) - g_k(s_p)) / (t_p - s_p)^tau over the time
    pairs and dH[k, q] = (h_k(y_q) - h_k(x_q)) / (y_q - x_q)^lam over the
    space pairs, the rectangle term is max |dG @ dH|, the time term
    max |dG @ H| and the space term max |G @ dH|, where G and H hold the
    terms at the time and space probes.  Increments go through path_diff, so
    sampled terms keep their cancellation.  Like the path seminorm these are
    sups over a finite deterministic probe family, hence lower bounds.
    """
    _require_interval(a, b)
    _require_interval(box[0], box[1], ("box lo", "box hi"))
    terms = w.separable_terms()
    if terms is None:
        raise ValueError(
            f"medium {w.descriptor!r} has no separable expansion; "
            "sample it into a GridField to estimate its seminorm"
        )
    ts_s, ts_t = _axis_pairs(a, b)
    xs_s, xs_t = _axis_pairs(box[0], box[1])
    t_probe = np.linspace(a, b, _N_COARSE + 1)
    x_probe = np.linspace(box[0], box[1], _N_COARSE + 1)

    dt_pow = (ts_t - ts_s) ** reg.tau
    dx_pow = (xs_t - xs_s) ** reg.lam
    d_g = np.column_stack([path_diff(g, ts_t, ts_s) / dt_pow for g, _ in terms])
    g_probe = np.column_stack([np.broadcast_to(g(t_probe), t_probe.shape) for g, _ in terms])
    d_h = np.vstack([path_diff(h, xs_t, xs_s) / dx_pow for _, h in terms])
    h_probe = np.vstack([np.broadcast_to(h(x_probe), x_probe.shape) for _, h in terms])

    rect_term = _max_abs_product(d_g, d_h)
    time_term = _max_abs_product(d_g, h_probe)
    space_term = _max_abs_product(g_probe, d_h)

    n_pairs = int(
        ts_s.size * xs_s.size
        + ts_s.size * x_probe.size
        + xs_s.size * t_probe.size
    )
    return FieldHolderReport(rect_term, time_term, space_term, n_pairs)


# ---------------------------------------------------------------------------
# descriptors and the grid JSON format


def make_field(desc: str) -> Field:
    """Build a field from a descriptor string or a path to a grid JSON file."""
    if desc.endswith(".json"):
        return read_grid_json(desc)
    name, args = parse_descriptor(desc)
    if name == "product":
        return ProductField(make_function(args["g"]), make_function(args["h"]))
    if name == "sum":
        return SumField(make_field(_strip(args["a"])), make_field(_strip(args["b"])))
    if name == "diff":
        return DifferenceField(make_field(_strip(args["a"])), make_field(_strip(args["b"])))
    raise ValueError(f"unknown field descriptor {desc!r}")


def _strip(desc: str) -> str:
    desc = desc.strip()
    if desc.startswith("(") and desc.endswith(")"):
        return desc[1:-1]
    return desc


def read_grid_json(path) -> GridField:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return GridField(
        data["ts"], data["xs"], data["values"], descriptor=f"grid:file={path}"
    )


def write_grid_json(path, field: GridField) -> None:
    data = {
        "ts": [float(t) for t in field.ts],
        "xs": [float(x) for x in field.xs],
        "values": [[float(v) for v in row] for row in field.values],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
