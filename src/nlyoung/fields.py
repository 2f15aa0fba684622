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
term of its base by the density, and a grid lists the terms of its
numerical rank from a thin SVD of its nodal values, exact to within the
first dropped singular value, a rounding-level amount.  The four-term
fractional expansion of int W(dt, phi_t) is linear in W, so the fractional
route computes it as sum_k int h_k(phi) dg_k over these terms; the sewing
sums reuse nodes for a single term.  The field seminorm reads every term,
so its probes are matrix products of the terms' increments and never go
through the increment calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .fraccalc import _require_interval
from .paths import _BLOCK_ENTRIES, PathLike, SampledPath, make_function, parse_descriptor, path_diff

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
    """x -> -h(x), keeping h's cancellation-safe diff and its domain when it
    has them."""

    def __init__(self, h: PathLike) -> None:
        self.h = h
        if hasattr(h, "diff"):
            self.diff = lambda t, s: -h.diff(t, s)
        if hasattr(h, "domain"):
            self.domain = h.domain

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


# a sorted query array at least this many times as long as the grid axis is
# located by one merge of the axis into it instead of a binary search per query
_MERGE_RATIO = 4


class GridField(Field):
    """Bilinear interpolation of nodal values W(ts[i], xs[j]).

    Increments are assembled from nodal differences (rows differenced before
    interpolation, mixed second differences for rectangles) so that the
    common interpolation terms cancel symbolically rather than in floats.
    The differences of adjacent rows V[p+1] - V[p] are tabled once, and
    increment_t reads them from the table by flat index.  Queries are found
    in their cells by a binary search, or, when sorted and at least
    _MERGE_RATIO times as many as the axis nodes (the sewing germ's
    partition nodes), by one merge of the axis into them; both give the
    same cells bit for bit.
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
        if not (np.all(np.isfinite(self.ts)) and np.all(np.isfinite(self.xs))):
            raise ValueError("grid axes must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")
        # V[p+1] - V[p] for every p, flattened, read by increment_t
        self._row_steps = np.diff(self.values, axis=0).ravel()
        for arr in (self.ts, self.xs, self.values, self._row_steps):
            arr.flags.writeable = False
        self.descriptor = descriptor or f"grid:{self.ts.size}x{self.xs.size}"

    def _locate(self, axis: np.ndarray, v):
        """Cell indices and in-cell fractions of the queries v on axis.

        The cell index is np.searchsorted(axis, v, side="right") - 1, clipped
        to the cells.  A sorted query array at least _MERGE_RATIO times as
        long as the axis gets it by one merge instead: node i is counted
        from query pos[i] = searchsorted(v, axis[i]) on, so each cell index
        repeats over the run of queries between two such positions, the same
        indices bit for bit, and the range check reads the first and last
        query.  Unsorted queries, NaN among them, keep the binary search.
        """
        arr = np.asarray(v, dtype=float)
        lo, hi = axis[0], axis[-1]
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        flat = arr.ravel()
        merge = flat.size >= _MERGE_RATIO * axis.size and bool(np.all(flat[1:] >= flat[:-1]))
        first, last = (flat[0], flat[-1]) if merge else (np.min(arr), np.max(arr))
        if first < lo - slack or last > hi + slack:
            raise ValueError(f"grid evaluation outside [{lo:g}, {hi:g}]")
        if not merge:
            idx = np.clip(np.searchsorted(axis, arr, side="right") - 1, 0, axis.size - 2)
            return idx, (arr - axis[idx]) / (axis[idx + 1] - axis[idx])
        runs = np.diff(np.searchsorted(flat, axis), prepend=0, append=flat.size)
        cells = np.clip(np.arange(-1, axis.size), 0, axis.size - 2)
        left = axis[cells]
        idx = np.repeat(cells, runs)
        frac = (flat - np.repeat(left, runs)) / np.repeat(axis[cells + 1] - left, runs)
        return idx.reshape(arr.shape), frac.reshape(arr.shape)

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

    def _step_at(self, p, j, w):
        """_rowdiff_at(p + 1, p, j, w), read from the table of row steps."""
        steps = self._row_steps
        f = p * self.xs.size + j
        d0 = steps.take(f)
        d1 = steps.take(f + 1)
        return d0 + w * (d1 - d0)

    def increment_t(self, s, t, x):
        """W(t, x) - W(s, x) from nodal row differences.

        Where s and t share a time cell the increment is (t - s)/dt_cell times
        the cell's row difference; where they do not, it is the row
        difference between their lower nodes plus the two partial-cell
        corrections.  The cell's row difference is formed once and the
        cross-cell formula only on the pairs that cross a cell.  Consecutive
        intervals, where s[1:] equals t[:-1] as in the sewing germ's
        partitions, have each node located once.  Increments read the nodal
        values, not the rank expansion of separable_terms, so its tolerance
        does not reach them; the sewing route calls them only for a grid of
        rank above nonlinear._REUSE_TERMS, and sews a grid of lower rank
        from its terms.
        """
        s, t, x = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        )
        shape = s.shape
        s, t, x = s.ravel(), t.ravel(), x.ravel()
        if np.array_equal(s[1:], t[:-1]):
            # consecutive intervals, as in a partition: each node located once
            i, f = self._locate(self.ts, np.concatenate((s, t[-1:])))
            is_, v, it, u = i[:-1], f[:-1], i[1:], f[1:]
        else:
            it, u = self._locate(self.ts, t)
            is_, v = self._locate(self.ts, s)
        j, w = self._locate(self.xs, x)
        step = self._step_at(it, j, w)
        out = ((t - s) / (self.ts[it + 1] - self.ts[it])) * step
        c = np.flatnonzero(it != is_)
        if c.size:
            it, is_, j, w = it[c], is_[c], j[c], w[c]
            out[c] = (
                self._rowdiff_at(it, is_, j, w)
                + u[c] * step[c]
                - v[c] * self._step_at(is_, j, w)
            )
        return out.reshape(shape) if shape else float(out[0])

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
        """The grid's numerical-rank expansion, from a thin SVD of its values.

        With the m x n values = U S V^T, term k is
        g_k = SampledPath(ts, s_k U[:, k]) and h_k = SampledPath(xs, V^T[k]),
        for the singular values s_k > max(m, n) * eps * s_1 (at least one
        term).  Bilinear interpolation is linear in the nodal values and its
        weights are nonnegative and sum to one, so the expansion reproduces
        eval everywhere within the first dropped singular value: the size of
        the rounding that values of magnitude s_1 already carry.  The terms
        are computed once per grid; each call returns a fresh list.
        """
        return list(self._rank_terms)

    @cached_property
    def _rank_terms(self):
        u, sv, vt = np.linalg.svd(self.values, full_matrices=False)
        tol = max(self.values.shape) * np.finfo(float).eps * sv[0]
        r = max(1, int(np.count_nonzero(sv > tol)))
        g_rows = sv[:r, None] * u[:, :r].T
        return tuple(
            (SampledPath(self.ts, g_rows[k]), SampledPath(self.xs, vt[k])) for k in range(r)
        )


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


@cache
def _pair_indices():
    """Indices into _axis_nodes of each probe pair's two ends: all pairs of
    the coarse nodes, then the fine nodes' small lags from every fourth node."""
    i, j = np.triu_indices(_N_COARSE + 1, k=1)
    s, t = [i], [j]
    for lag in range(1, _MAX_LAG + 1):
        idx = np.arange(0, _N_FINE + 1 - lag, 4) + _N_COARSE + 1
        s.append(idx)
        t.append(idx + lag)
    s, t = np.concatenate(s), np.concatenate(t)
    s.flags.writeable = t.flags.writeable = False
    return s, t


def _axis_nodes(lo: float, hi: float) -> np.ndarray:
    """The probe nodes on [lo, hi]: the coarse grid, then the fine one."""
    return np.concatenate([np.linspace(lo, hi, _N_COARSE + 1), np.linspace(lo, hi, _N_FINE + 1)])


def _probe_term(f, nodes: np.ndarray, scale: np.ndarray):
    """f at the coarse nodes, and f's pair increments divided by scale.

    f is called once on the nodes and its increments gathered from those
    values; a term with its own `diff` (a SampledPath) is differenced on the
    pairs by it instead, which keeps its cancellation, and called on the
    coarse nodes alone.
    """
    first, second = _pair_indices()
    coarse = nodes[: _N_COARSE + 1]
    if hasattr(f, "diff"):
        return np.broadcast_to(f(coarse), coarse.shape), f.diff(nodes[second], nodes[first]) / scale
    values = np.broadcast_to(f(nodes), nodes.shape)
    return values[: _N_COARSE + 1], (values[second] - values[first]) / scale


def _max_abs_product(left: np.ndarray, right: np.ndarray) -> float:
    """max |left @ right|, in row blocks of about _BLOCK_ENTRIES entries.

    With one inner term the product is an outer product, whose largest
    entry is the product of the two largest factors.
    """
    if left.shape[1] == 1:
        return float(np.max(np.abs(left))) * float(np.max(np.abs(right)))
    rows = max(1, _BLOCK_ENTRIES // right.shape[1])
    tops = []
    for i in range(0, left.shape[0], rows):
        block = left[i:i + rows] @ right
        tops.append(np.max(np.abs(block, out=block)))
    return float(np.max(tops))


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
    terms at the time and space probes.  Each axis has 41 coarse and 385
    fine probe nodes, and its pairs are fixed pairs of them; a term is
    called once on the nodes and its pair increments are gathered from those
    values, except a term with its own `diff` (a SampledPath, such as a
    grid's terms), which is differenced on the pairs so that it keeps its
    cancellation.  Like the path seminorm these are sups over a finite
    deterministic probe family, hence lower bounds.
    """
    _require_interval(a, b)
    _require_interval(box[0], box[1], ("box lo", "box hi"))
    terms = w.separable_terms()
    if terms is None:
        raise ValueError(
            f"medium {w.descriptor!r} has no separable expansion; "
            "sample it into a GridField to estimate its seminorm"
        )
    t_nodes, x_nodes = _axis_nodes(a, b), _axis_nodes(box[0], box[1])
    first, second = _pair_indices()
    dt_pow = (t_nodes[second] - t_nodes[first]) ** reg.tau
    dx_pow = (x_nodes[second] - x_nodes[first]) ** reg.lam
    g_probe, d_g = zip(*(_probe_term(g, t_nodes, dt_pow) for g, _ in terms))
    h_probe, d_h = zip(*(_probe_term(h, x_nodes, dx_pow) for _, h in terms))
    g_probe, d_g = np.column_stack(g_probe), np.column_stack(d_g)
    h_probe, d_h = np.vstack(h_probe), np.vstack(d_h)

    rect_term = _max_abs_product(d_g, d_h)
    time_term = _max_abs_product(d_g, h_probe)
    space_term = _max_abs_product(g_probe, d_h)

    # the rectangle's pairs of pairs, then each axis's pairs against the other's probes
    n_pairs = int(first.size * (first.size + 2 * (_N_COARSE + 1)))
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
