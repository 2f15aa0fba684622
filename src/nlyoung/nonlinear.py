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
sum_k int h_k(phi) dg_k by one call of fraccalc.dl_dr_sampled on the
stacked terms.  The sewing route sums the germ
mu(s,t) = W(t,phi_s) - W(s,phi_s) over dyadic partitions, extrapolates
the limit at order 1 and refines only as far as its tolerance needs.  Both require the declared exponents to
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
from .fraccalc import _finest_scale, _require_interval, dl_dr_sampled, grid_rows, odd_rows
from .paths import _BLOCK_ENTRIES, _IDENTITY, HolderReport, SampledPath, _as_sampled, holder_seminorm_path
from .quadrature import (
    QuadratureConfig,
    _within_tol,
    refine_levels,  # unused here, but perfbench/spans.py wraps it in this module
)
from .regression import lag_scaling_slope

# placeholders for the mesh builders that perfbench/spans.py wraps by name, its
# only reader; the benchmark change that moves spans.py onto a library-side
# trace (ROADMAP item 1) deletes them
singular_cells = two_sided_cells = None

__all__ = [
    "Germ",
    "IntegralReport",
    "SewingTrace",
    "NormEstimates",
    "integrate_fractional",
    "integrate_sewing",
    "sewing_levels",
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

    def to_json_dict(self) -> dict:
        out = {
            "value": self.value,
            "method": self.method,
            "error_estimate": self.error_estimate,
            "bound_ratios": dict(self.bound_ratios),
            "converged": self.converged,
            "params": dict(self.params),
            "runtime_ms": self.runtime_ms,
        }
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.levels_used is not None:
            out["levels_used"] = self.levels_used
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


def _seminorm_box(w: Field, box: tuple[float, float]) -> tuple[float, float]:
    """box cut to the x domain of every separable term that has one.

    A grid's terms are defined on its x axis only; the integral reads them
    at phi's values, so the padding of _phi_box may reach past an axis that
    covers phi with a small margin, and the field seminorm must not.
    """
    lo, hi = box
    for _, h in w.separable_terms() or ():
        if hasattr(h, "domain"):
            lo, hi = max(lo, h.domain[0]), min(hi, h.domain[1])
    return lo, hi


def estimate_norms(w: Field, phi, reg: Regularity, a: float, b: float) -> NormEstimates:
    """Probe-grid seminorm estimates of the medium and the path on [a, b]."""
    box = _seminorm_box(w, _phi_box(phi, a, b))
    fr = holder_seminorm_field(w, reg, a, b, box)
    pr = holder_seminorm_path(_as_sampled(phi, a, b, 1024), reg.gamma, a, b)
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
    sum_k int h_k(phi) dg_k, each term the fractional Young form.  phi and
    the g_k are sampled on the start grid of fraccalc.grid_rows, and
    fraccalc.dl_dr_sampled runs on the stacked rows h_k(phi) and g_k,
    doubling the grid, each new node sampled once, until the estimate meets
    cfg.tol or the grid has cfg.grid_cells() cells; params["grid_cells"] is
    the finest grid used.  A medium without separable_terms()
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
    g_terms, h_terms = zip(*terms)
    fns = (phi, *g_terms)

    def split(rows):  # the rows phi, g_1..g_K into h_1(phi)..h_K(phi) and g_1..g_K
        h_rows = np.empty((len(h_terms), rows.shape[1]))
        for k, h in enumerate(h_terms):
            h_rows[k] = h(rows[0])
        return h_rows, rows[1:]

    # reg.require_admissible() gave lam*gamma > alpha > 1 - tau, which the kernel needs
    combined = dl_dr_sampled(
        *split(grid_rows(fns, a, b, cfg)), reg.alpha, a, b, cfg, lambda n: split(odd_rows(fns, a, b, n))
    )
    params = {
        "a": a,
        "b": b,
        "tau": reg.tau,
        "lam": reg.lam,
        "gamma": reg.gamma,
        "n_outer": cfg.n_outer,
        "grid_cells": combined.cells,
    }

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


# most separable terms a medium may have to sew from its terms.  Every
# medium is sewn by one sweep; the rank picks only its entries.  The cost of
# increment_t entries does not depend on the rank and the terms' grows with
# it: on 257 x 65 random grids along a Weierstrass phi at 2^18 intervals
# (minima of 20 interleaved solves, shared 2-core Xeon), rank 5 took 25.0 ms
# on the terms against 32.0 ms on increment_t, rank 6 30.0 against 31.4 ms
# and rank 7 34.3 against 31.6 ms.
_REUSE_TERMS = 5
# lowest floor level of a sewing solve: the estimates at levels F - 2..F,
# from which the second sweep is sized, read the sums of levels F - 5..F
_MIN_FLOOR = 5


def _tree_sum(parts) -> float:
    """The sum of a level from the sums of its 2^m aligned parts, neighbours
    first.  numpy adds a 2^k array as the sum of its halves, down to leaves
    of 128 entries, so with parts of at least 128 entries this is np.sum of
    the whole level bit for bit."""
    p = np.asarray(parts, dtype=float)
    while p.size > 1:
        p = p[0::2] + p[1::2]
    return float(p[0])


def _term_entries(rows, s: int) -> np.ndarray:
    """sum_k (g_k(t_(i+s)) - g_k(t_i)) h_k(phi(t_i)) at stride s of a piece's
    nodes, from its rows g_1, h_1(phi), g_2, h_2(phi), ..., in term order."""
    out = np.subtract(rows[0][s::s], rows[0][:-s:s])
    out *= rows[1][:-s:s]
    for g, h in zip(rows[2::2], rows[3::2]):
        out += (g[s::s] - g[:-s:s]) * h[:-s:s]
    return out


def _term_levels(terms, phi, entries, a: float, b: float, last: int, first: int, take) -> list:
    """The levels first..last of the germ on the dyadic partitions of [a, b],
    from one sweep over the nodes t of level last: a list per level of
    take(entries(rows, s)) for each of its parts, in order, where rows are
    a piece's rows and s the level's stride in them.  With the terms
    (g_k, h_k) the rows are g_1(t), h_1(phi(t)), g_2(t), ..., in term order;
    with none they are t and phi(t).

    The sweep samples the nodes in pieces of min(2^last, P) intervals, P
    the largest power of two within _BLOCK_ENTRIES, each node of phi and
    each g_k once, each h_k once on phi's values, the piece's left node
    carried from the piece before.  A series (phi or a g_k with
    grid_factors) is factored once per sweep over all 2^last + 1 nodes, in
    rows of m nodes, m = 2^ceil(last / 2) ~ sqrt(2^last) but at most the
    piece, so that m divides it; each piece is then one product of its
    piece / m + 1 factor rows, written straight into its buffer.  Any other
    phi or g_k is called on the piece's nodes (i + j piece) step + a, the
    last one b: bitwise the nodes of np.linspace(a, b, 2^k + 1) at every
    level k, since step = (b - a) / 2^last is (b - a) / 2^k scaled by a
    power of two.  A level's entries in a piece are formed from its rows at
    stride 2^(last - k).  With one piece, or at least 128 entries a piece, a
    level takes a part per piece, so _tree_sum of their np.sum is np.sum of
    the level; the coarser ones are formed whole, after the sweep, from the
    rows of the level of 128 entries a piece (or of level last) gathered
    from every piece.  So for functions without grid_factors each entry is
    entries on the level's nodes bit for bit; a series' samples meet its
    accuracy contract instead of matching its calls bit for bit.
    """
    n = 2**last
    piece = min(n, 1 << (_BLOCK_ENTRIES.bit_length() - 1))
    pieces = n // piece
    split = pieces.bit_length() + 6 if pieces > 1 else 0  # levels from split on go by piece
    coarse = min(split, last)
    stride = 2 ** (last - coarse)
    step = (b - a) / n
    m = min(piece, 1 << ((last + 1) // 2))
    per = piece // m
    fns = [phi, *(g for g, _ in terms)]
    factors = [f.grid_factors(a, step, n + 1, m) if hasattr(f, "grid_factors") else None for f in fns]
    # a series' buffer takes its piece's per + 1 factor rows whole, m - 1
    # nodes past the piece
    bufs = [np.empty(piece + m) if fac else np.empty(piece + 1) for fac in factors]
    # the nodes, made when some function is called on them or they are a row
    ts = np.empty(piece + 1) if not terms or any(fac is None for fac in factors) else None
    rows = []
    for buf in bufs[1:]:
        rows += [buf[:piece + 1], np.empty(piece + 1)]
    rows = rows or [ts, bufs[0][:piece + 1]]
    gathered = [np.empty(2**coarse + 1) for _ in rows] if first < split else []
    parts = [[] for _ in range(first, last + 1)]
    for j in range(pieces):
        new = 1 if j else 0
        if ts is not None:  # the left node too: the last node of the piece before, bit for bit
            np.multiply(np.arange(j * piece, (j + 1) * piece + 1), step, out=ts)
            ts += a
            if j == pieces - 1:
                ts[-1] = b
        for f, fac, buf in zip(fns, factors, bufs):
            carried = buf[piece]
            if fac:
                np.matmul(fac[0][j * per:(j + 1) * per + 1], fac[1], out=buf.reshape(-1, m))
            else:
                buf[new:piece + 1] = f(ts[new:])
            if new:
                buf[0] = carried
        x = bufs[0][new:piece + 1]
        for row, (_, h) in zip(rows[1::2], terms):
            if new:
                row[0] = row[-1]
            if h is _IDENTITY:  # its bits, x + 0.0, without a fresh array to copy
                np.add(x, 0.0, out=row[new:])
            else:
                row[new:] = h(x)
        for k in range(max(first, split), last + 1):
            parts[k - first].append(take(entries(rows, 2 ** (last - k))))
        width = piece // stride
        for nodes, row in zip(gathered, rows):
            nodes[j * width:(j + 1) * width + 1] = row[::stride]
    for k in range(first, min(split, last + 1)):
        parts[k - first].append(take(entries(gathered, 2 ** (coarse - k))))
    return parts


def _level_parts(w: Field, phi, a: float, b: float, last: int, first: int, take):
    """take(part) for the consecutive parts of each level first..last, a
    list per level, from one sweep (_term_levels): on the terms for one to
    _REUSE_TERMS separable terms, else on W.increment_t at the nodes and
    phi's values."""
    terms = w.separable_terms()
    if terms and len(terms) <= _REUSE_TERMS:
        return _term_levels(terms, phi, _term_entries, float(a), float(b), last, first, take)

    def germ_entries(rows, s):
        t, x = rows
        return w.increment_t(t[:-s:s], t[s::s], x[:-s:s])

    return _term_levels((), phi, germ_entries, float(a), float(b), last, first, take)


def sewing_levels(w: Field, phi, a: float, b: float, last: int, first: int = 0):
    """The germ mu(s, t) = W(t, phi_s) - W(s, phi_s) on the dyadic partitions
    of [a, b] with 2^k intervals, one array per level k = first..last.

    Every level comes from one sweep over the nodes of level last
    (_term_levels), made when sewing_levels is called: phi is evaluated at
    those 2^last + 1 points, a Weierstrass phi by one grid factorization
    over them and a product of its rows per piece.  Media with one to
    _REUSE_TERMS separable terms sum the germ of their terms,
    sum_k (g_k(t) - g_k(s)) h_k(phi_s), each g_k sampled like phi and each
    h_k evaluated once on phi's values; media with more terms, or with
    none, call W.increment_t on the nodes and phi's values.  Needs
    0 <= first <= last and last >= 1.
    """
    if not 0 <= first <= last or last < 1:
        raise ValueError(f"need 0 <= first <= last and last >= 1, got first={first}, last={last}")
    return map(np.concatenate, _level_parts(w, phi, a, b, last, first, lambda e: e))


def _level_sums(w: Field, phi, a: float, b: float, first: int, last: int) -> list:
    """The sums of the levels first..last of sewing_levels(w, phi, a, b,
    last, first), from one sweep over the nodes of level last, each from its
    parts' np.sum by _tree_sum, so no level is held whole."""
    return [_tree_sum(parts) for parts in _level_parts(w, phi, a, b, last, first, np.sum)]


def _floor_level(w: Field, phi, a: float, b: float, max_levels: int) -> int:
    """The last level F of a sewing solve's first sweep:
    ceil(log2((b - a) finest)) + 2, finest the largest finest_frequency of
    phi and the g_k (fraccalc._finest_scale), so that level F has at least
    four intervals per cell of the inputs' finest scale; at least
    _MIN_FLOOR, and max_levels when the scale is unknown or beyond it."""
    terms = w.separable_terms()
    finest = None if terms is None else _finest_scale([phi, *(g for g, _ in terms)])
    if finest is None or not (b - a) * finest < 2.0**max_levels:
        return max_levels
    level = math.ceil(math.log2((b - a) * finest)) + 2 if finest > 0 else 0
    return min(max(level, _MIN_FLOOR), max_levels)


def _estimates(sums) -> tuple[np.ndarray, np.ndarray]:
    """(R, E) per level k: the order-1 extrapolation R_k = 2 S_k - S_(k-1)
    of the level sums S (R_0 = S_0) and its estimate
    E_k = d_k + |d_k - d_(k-1)|, d_k = |R_k - R_(k-1)| (d_0 = 0)."""
    s = np.asarray(sums, dtype=float)
    r = np.concatenate([s[:1], s[1:] + (s[1:] - s[:-1])])
    d = np.abs(np.diff(r, prepend=r[0]))
    return r, d + np.abs(np.diff(d, prepend=0.0))


def _predicted_level(est: np.ndarray, target: float, floor: int, max_levels: int) -> int:
    """The second sweep's last level: where the estimate E, decaying from
    level floor - 2 to floor at the rate it did there, meets target, plus
    one level, within [floor + 1, max_levels]; max_levels when E does not
    decay."""
    early, late = est[floor - 2], est[floor]
    if not (target > 0 and 0 < late < early):
        return max_levels
    rate = 0.5 * math.log2(early / late)  # halvings of E per level
    more = math.ceil(math.log2(late / target) / rate) + 1
    return min(max(floor + more, floor + 1), max_levels)


def integrate_sewing(
    w: Field,
    phi,
    a: float,
    b: float,
    max_levels: int = 18,
    tol: float = 1e-5,
) -> tuple[IntegralReport, SewingTrace]:
    """int_a^b W(dt, phi_t) as the limit of germ Riemann sums.

    The sums S_k are those of the levels of sewing_levels(w, phi, a, b,
    max_levels).  The value at level k is their order-1 extrapolation
    R_k = 2 S_k - S_(k-1), and its error estimate is
    E_k = |R_k - R_(k-1)| + ||R_k - R_(k-1)| - |R_(k-1) - R_(k-2)||
    (_estimates); converged says that E meets tol as quadrature._within_tol
    does, E <= tol max(1, |R|), on a finite value and estimate.

    The levels are formed in at most three sweeps (_level_sums), each
    sampling all the nodes of its last level once (a Weierstrass g_k or phi
    from one grid factorization per sweep).  The first ends at the floor
    level F (_floor_level), set by the finest scale of phi and the g_k, or
    at max_levels when that scale is unknown or tol is 0.  If E_F misses
    tol, the second ends at the level where E, decaying as it did over
    levels F - 2..F, meets it, plus one (_predicted_level); if that level
    misses too, the third ends at max_levels.  The report is that of the
    finest level swept, so a solve stopping in the second sweep at level L
    samples 2^F + 1 nodes and then 2^L + 1.  params records F as
    "floor_level", each sweep's last level as "sweeps", and as
    "stop_reason" "tol" if E met a tol above 0, else "max_levels".  With
    tol = 0 a solve forms every level up to max_levels.  max_levels must be
    at least 2, so that the estimate has two extrapolations to compare.
    """
    _require_interval(a, b)
    if max_levels < 2:
        raise ValueError(f"need max_levels >= 2, got {max_levels}")
    t0 = time.perf_counter()
    floor = _floor_level(w, phi, a, b, max_levels)
    sweeps = [floor if tol > 0 else max_levels]
    sums = _level_sums(w, phi, a, b, 0, sweeps[0])
    while True:
        r, est = _estimates(sums)
        value, err = float(r[-1]), float(est[-1])
        # a non-finite value or estimate (h(phi) infinite somewhere, say) met no tolerance
        converged = math.isfinite(value) and math.isfinite(err) and _within_tol(err, value, tol)
        stopped = converged and tol > 0
        if stopped or sweeps[-1] == max_levels:
            break
        last = max_levels
        if len(sweeps) == 1:
            last = _predicted_level(est, tol * max(1.0, abs(value)), floor, max_levels)
        sums += _level_sums(w, phi, a, b, sweeps[-1] + 1, last)
        sweeps.append(last)

    diffs = np.abs(np.diff(sums))
    orders = tuple(
        float(np.log2(diffs[i] / diffs[i + 1]))
        for i in range(len(diffs) - 1)
        if diffs[i] > 0 and diffs[i + 1] > 0
    )
    runtime_ms = 1e3 * (time.perf_counter() - t0)
    report = IntegralReport(
        value=value,
        method="sewing",
        error_estimate=err,
        levels_used=len(sums) - 1,
        runtime_ms=runtime_ms,
        converged=converged,
        params={
            "a": a,
            "b": b,
            "max_levels": max_levels,
            "tol": tol,
            "floor_level": floor,
            "sweeps": sweeps,
            "stop_reason": "tol" if stopped else "max_levels",
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

    Each increment is one fractional evaluation on [t_(i-1), t_i], by
    default at QuadratureConfig(n_outer=96): a cap of 576 grid cells, below
    the ladder's 4096-cell floor, so each runs one grid and all of them
    share one kept quadrature.grid_plan.  The regression_slope diagnostic
    fits log(median |increment|) against log(lag) over dyadic lags and
    should sit near tau.
    """
    if n_points < 9:
        raise ValueError("need n_points >= 9")
    cfg = cfg or QuadratureConfig(n_outer=96)
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
    norms = estimate_norms(diff, phi, reg, a, b)
    term2 = norms.field.bracket * norms.path.seminorm**reg.lam * (b - a) ** (reg.tau + reg.lam * reg.gamma)
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
    box = _seminorm_box(w, (min(box1[0], box2[0]), max(box1[1], box2[1])))
    bracket = holder_seminorm_field(w, reg, u, v, box).bracket
    n1 = holder_seminorm_path(_as_sampled(phi1, u, v, 1024), reg.gamma, u, v).seminorm
    n2 = holder_seminorm_path(_as_sampled(phi2, u, v, 1024), reg.gamma, u, v).seminorm
    term1 = bracket * supdiff**reg.lam * (v - u) ** reg.tau
    term2 = (
        bracket
        * supdiff ** (reg.lam * (1.0 - theta))
        * (v - u) ** (reg.tau + theta * reg.lam * reg.gamma)
    )
    c2_shape = 2.0 ** (1.0 - theta) * (n1**reg.lam + n2**reg.lam) ** theta
    return StabilityCheck(lhs, term1, term2, (r1, r2), c2_shape)
