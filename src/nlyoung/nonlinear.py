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
mu(s,t) = W(t,phi_s) - W(s,phi_s) over dyadic partitions and
Richardson-extrapolates the limit.  Both require the declared exponents to
satisfy tau + lam*gamma > 1, with the fractional order alpha in
(1 - tau, lam*gamma); the value does not depend on the admissible alpha.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import time
import weakref
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
from .fraccalc import _interleave, _require_interval, dl_dr_sampled, grid_rows, odd_rows
from .paths import (
    _BLOCK_ENTRIES,
    HolderReport,
    SampledPath,
    holder_seminorm_path,
    sample_function,
    sample_uniform,
)
from .quadrature import (
    QuadratureConfig,
    refine_levels,  # unused here, but perfbench/spans.py wraps it in this module
    richardson,
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


def _as_sampled(phi, a: float, b: float, n: int = 1024) -> SampledPath:
    if isinstance(phi, SampledPath):
        return phi
    return sample_function(phi, a, b, n)


def estimate_norms(w: Field, phi, reg: Regularity, a: float, b: float) -> NormEstimates:
    """Probe-grid seminorm estimates of the medium and the path on [a, b]."""
    box = _seminorm_box(w, _phi_box(phi, a, b))
    fr = holder_seminorm_field(w, reg, a, b, box)
    pr = holder_seminorm_path(_as_sampled(phi, a, b), reg.gamma, a, b)
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


# intervals per germ call: a grid germ keeps about a dozen arrays of its
# block's length live at once, so it takes a quarter of the block budget
_GERM_BLOCK = _BLOCK_ENTRIES // 4
# most separable terms a medium may have to sew from its terms.  The germ
# route's cost does not depend on the rank and the term route's grows with
# it: on 257 x 65 random grids at 2^18 intervals (minima of 15 interleaved
# solves), rank 4 took 27.6 ms on the terms against 31.7 ms by germ calls,
# rank 5 35.3 against 30.3 ms.
_REUSE_TERMS = 4


def _germ_levels(w: Field, phi, a: float, b: float, last: int, first: int):
    """Germ arrays of the dyadic partitions of [a, b] at levels first..last.

    Entry i of level k is mu(t_i, t_(i+1)) on the nodes
    np.linspace(a, b, 2^k + 1).  The germ is called on blocks of _GERM_BLOCK
    intervals, each written into the level's array.
    """
    germ = Germ(w, phi)
    for k in range(first, last + 1):
        ts = np.linspace(a, b, 2**k + 1)
        level = np.empty(2**k)
        for i in range(0, level.size, _GERM_BLOCK):
            j = min(i + _GERM_BLOCK, level.size)
            level[i:j] = germ(ts[i:j], ts[i + 1:j + 1])
        yield level


# The term route's arrays longer than a block (its carried nodes and its
# levels) each get an anonymous mapping of their own, given back to the
# system when the array is dropped.  glibc maps allocations over 128 KB that
# way until it frees a larger mapped block, then serves every request below
# that block's size from its heap.  There a sewing solve left a few MB of
# free heap above its blocks' temporaries, and the small allocations that
# happened to land in it decided where the process's next large arrays went,
# so its peak RSS moved with the allocator's history: the benchmark's
# wei-sewing peak_rss_mb spread by 3.2 MB between the quartiles of ten runs
# (2-core x86-64 host, glibc 2.36).  With the mappings a solve leaves the
# heap as it found it, and ten runs spread by 0.12 MB.
_MAP_FLAGS = (
    getattr(mmap, "MAP_PRIVATE", 0)
    | getattr(mmap, "MAP_ANONYMOUS", 0)
    # faulted in by one call: 0.6 ms per 2 MB on that host, 1.5 ms page by page
    | getattr(mmap, "MAP_POPULATE", 0)
)
# numpy's tracemalloc domain for array data: the mapped arrays are reported
# there while tracemalloc traces, like the arrays numpy allocates itself
# (PyTraceMalloc_Track returns 0 only then)
_NUMPY_TRACE_DOMAIN = 389047
_trace_track = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t)(
    ("PyTraceMalloc_Track", ctypes.pythonapi)
)
_trace_untrack = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.c_uint, ctypes.c_size_t)(
    ("PyTraceMalloc_Untrack", ctypes.pythonapi)
)


def _mapped_empty(n: int) -> np.ndarray:
    """np.empty(n), in an anonymous mapping of its own if n exceeds
    _BLOCK_ENTRIES and the system has them."""
    if n <= _BLOCK_ENTRIES or not _MAP_FLAGS:
        return np.empty(n)
    buf = mmap.mmap(-1, 8 * n, flags=_MAP_FLAGS)
    out = np.frombuffer(buf, dtype=float)
    if _trace_track(_NUMPY_TRACE_DOMAIN, out.ctypes.data, 8 * n) == 0:
        weakref.finalize(buf, _trace_untrack, _NUMPY_TRACE_DOMAIN, out.ctypes.data)
    return out


def _term_level(gv, hv) -> np.ndarray:
    """sum_k (g_k(t_(i+1)) - g_k(t_i)) h_k(phi(t_i)) from the values g_k(t_i)
    and h_k(phi(t_i)) at the nodes, added in term order."""
    level = np.subtract(gv[0][1:], gv[0][:-1], out=_mapped_empty(gv[0].size - 1))
    level *= hv[0][:-1]
    for g, h in zip(gv[1:], hv[1:]):
        level += (g[1:] - g[:-1]) * h[:-1]
    return level


def _refine_nodes(terms, phi, gv, hv, a: float, b: float, k: int) -> None:
    """Replace the values at the nodes of level k - 1 in gv and hv by those
    at the nodes of level k, sampling the terms at the new midpoints only."""
    step = (b - a) / 2**k
    mid = np.arange(1, 2**k, 2) * step + a
    x = sample_uniform(phi, mid, 2.0 * step)
    for r, (g, h) in enumerate(terms):
        gv[r] = _interleave(gv[r], sample_uniform(g, mid, 2.0 * step), _mapped_empty(2**k + 1))
        hv[r] = _interleave(hv[r], h(x), _mapped_empty(2**k + 1))


def _last_level(terms, phi, gv, hv, a: float, b: float, last: int) -> np.ndarray:
    """_term_level at level last from the values at the nodes of level
    last - 1 and the new midpoints, without the values at its own nodes.

    Its even and odd entries are (m_i - g_i) h_i and (g_(i+1) - m_i) hm_i
    per term, with m_i and hm_i the term's values at the midpoints, which
    are taken in blocks of _BLOCK_ENTRIES // r for r terms.
    """
    step = (b - a) / 2**last
    level = _mapped_empty(2**last)
    even, odd = level[0::2], level[1::2]
    size = _BLOCK_ENTRIES // len(terms)
    for i in range(0, even.size, size):
        j = min(i + size, even.size)
        mid = np.arange(2 * i + 1, 2 * j, 2) * step + a
        x = sample_uniform(phi, mid, 2.0 * step)
        for r, (g, h) in enumerate(terms):
            m = sample_uniform(g, mid, 2.0 * step)
            lo = (m - gv[r][i:j]) * hv[r][i:j]
            hi = (gv[r][i + 1:j + 1] - m) * h(x)
            if r:
                even[i:j] += lo
                odd[i:j] += hi
            else:
                even[i:j], odd[i:j] = lo, hi
    return level


def _separable_levels(terms, phi, a: float, b: float, last: int, first: int):
    """The levels first..last for W = sum_k g_k(t) h_k(x), from the terms:
    entry i is sum_k (g_k(t_(i+1)) - g_k(t_i)) h_k(phi(t_i)), in term order.

    Each partition is the previous one plus its midpoints, so every g_k and
    h_k(phi) is carried at the nodes of the levels below last and evaluated
    only at the new midpoints, phi once for all the terms; the last level
    comes from the carried nodes and its own midpoints (_last_level).  No
    level below first is formed.  g_k and phi are sampled through
    paths.sample_uniform, h_k on phi's values.  The midpoints are bitwise
    the odd nodes of np.linspace(a, b, n + 1) and the even ones bitwise the
    coarser level's nodes, so for g_k and phi without `on_grid` each entry
    is the term sum on those nodes bit for bit.  A Weierstrass g_k or phi is
    sampled by its on_grid, which meets the series' accuracy contract
    instead of matching its calls bit for bit.
    """
    ts = np.linspace(a, b, 2)
    x = sample_uniform(phi, ts, b - a)
    gv = [sample_uniform(g, ts, b - a) for g, _ in terms]
    hv = [np.asarray(h(x), dtype=float) for _, h in terms]
    for k in range(last):
        if k:
            _refine_nodes(terms, phi, gv, hv, a, b, k)
        if k >= first:
            yield _term_level(gv, hv)
    yield _last_level(terms, phi, gv, hv, a, b, last)


def sewing_levels(w: Field, phi, a: float, b: float, last: int, first: int = 0):
    """The germ mu(s, t) = W(t, phi_s) - W(s, phi_s) on the dyadic partitions
    of [a, b] with 2^k intervals, one array per level k = first..last.

    Media with one to _REUSE_TERMS separable terms sum the germ of their
    terms, sum_k (g_k(t) - g_k(s)) h_k(phi_s), from the nodes of the coarser
    partitions (_separable_levels): through level L, every g_k, h_k and phi
    is evaluated at 2^L + 1 points in all, and the last level is formed
    without carrying its nodes.  Media with more terms, or with none, call
    the germ on all 2^k + 1 nodes of each level from first on.  Needs
    0 <= first <= last and last >= 1.
    """
    if not 0 <= first <= last or last < 1:
        raise ValueError(f"need 0 <= first <= last and last >= 1, got first={first}, last={last}")
    terms = w.separable_terms()
    if terms and len(terms) <= _REUSE_TERMS:
        return _separable_levels(terms, phi, float(a), float(b), last, first)
    return _germ_levels(w, phi, a, b, last, first)


def integrate_sewing(
    w: Field,
    phi,
    a: float,
    b: float,
    max_levels: int = 18,
    tol: float = 1e-10,
) -> tuple[IntegralReport, SewingTrace]:
    """int_a^b W(dt, phi_t) as the limit of germ Riemann sums.

    The sums are those of the levels of sewing_levels(w, phi, a, b,
    max_levels), refined until successive sums differ by less than tol, from
    level 4 on, or max_levels is hit; params["stop_reason"] says which.
    max_levels must be at least 2, so that quadrature.richardson has three
    sums to extrapolate at their fitted order.  A value or error estimate that is not finite is reported with
    converged=False.
    """
    _require_interval(a, b)
    if max_levels < 2:
        raise ValueError(f"need max_levels >= 2, got {max_levels}")
    t0 = time.perf_counter()
    levels = sewing_levels(w, phi, a, b, max_levels)
    sums: list[float] = []
    stop_reason = "max_levels"
    for k in range(max_levels + 1):
        sums.append(float(np.sum(next(levels))))  # no level is held while the next is built
        if k >= 4 and abs(sums[-1] - sums[-2]) < tol:
            stop_reason = "tol"
            break

    diffs = np.abs(np.diff(sums))
    orders = tuple(
        float(np.log2(diffs[i] / diffs[i + 1]))
        for i in range(len(diffs) - 1)
        if diffs[i] > 0 and diffs[i + 1] > 0
    )
    value, err = richardson(*sums[-3:])

    scale = max(1.0, abs(value))
    # a non-finite value or estimate (h(phi) infinite somewhere, say) met no tolerance
    converged = math.isfinite(value) and math.isfinite(err)
    if diffs.size >= 3:
        tail = diffs[-3:]
        if tail[-1] >= tail[-2] >= tail[-3] and tail[-1] > 1e-13 * scale:
            converged = False

    runtime_ms = 1e3 * (time.perf_counter() - t0)
    report = IntegralReport(
        value=value,
        method="sewing",
        error_estimate=float(err),
        levels_used=len(sums) - 1,
        runtime_ms=runtime_ms,
        converged=converged,
        params={
            "a": a,
            "b": b,
            "max_levels": max_levels,
            "tol": tol,
            "stop_reason": stop_reason,
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
    n1 = holder_seminorm_path(_as_sampled(phi1, u, v), reg.gamma, u, v).seminorm
    n2 = holder_seminorm_path(_as_sampled(phi2, u, v), reg.gamma, u, v).seminorm
    term1 = bracket * supdiff**reg.lam * (v - u) ** reg.tau
    term2 = (
        bracket
        * supdiff ** (reg.lam * (1.0 - theta))
        * (v - u) ** (reg.tau + theta * reg.lam * reg.gamma)
    )
    c2_shape = 2.0 ** (1.0 - theta) * (n1**reg.lam + n2**reg.lam) ** theta
    return StabilityCheck(lhs, term1, term2, (r1, r2), c2_shape)
