import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung import fraccalc, nonlinear
from nlyoung.experiments import load_path, pinned_combos
from nlyoung.fields import (
    DifferenceField,
    Field,
    GridField,
    ProductField,
    Regularity,
    RegularityError,
    SumField,
    make_field,
)
from nlyoung.fraccalc import (
    dl_dr_integral,
    dl_dr_sampled,
    frac_integral_left,
    frac_integral_right,
    grid_rows,
    weyl_left,
    weyl_right,
)
from nlyoung.iterated import DiagonalField, _Weighted
from nlyoung.nonlinear import (
    Germ,
    alpha_independence,
    centered_bound_check,
    estimate_norms,
    indefinite_integral,
    integrate_fractional,
    integrate_sewing,
    refined_bound_check,
    stability_in_medium,
    stability_in_path,
)
from nlyoung.paths import SampledPath, WeierstrassFunction, make_function, make_weierstrass, sample_function
from nlyoung.quadrature import QuadratureConfig
from nlyoung.young import young_integral

ident = make_function("identity")
one = make_function("const:c=1")
SMOOTH = Regularity(1.0, 1.0, 1.0, 0.5)
EPS = np.finfo(float).eps


class _Counting:
    """A plain callable around f that counts the points it is evaluated at.

    It has no diff, on_grid or grid_factors, so every sample of f is a call
    of f.  It keeps f's finest_frequency, if f has one, so that a solve
    plans its grids and sweeps as it does for f.
    """

    def __init__(self, f):
        self.f = f
        self.points = 0
        if hasattr(f, "finest_frequency"):
            self.finest_frequency = f.finest_frequency

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)


class _CountingSeries(WeierstrassFunction):
    """A Weierstrass series that counts the points it is called at and the
    grid factorizations it builds."""

    points = builds = 0

    def __call__(self, t):
        self.points += np.size(t)
        return super().__call__(t)

    def grid_factors(self, *args):
        self.builds += 1
        return super().grid_factors(*args)


def _grid_gap(f, t_max):
    """How far a series' grid samples may lie from its calls at |t| <= t_max:
    the evaluator contract of tests/test_paths.py; 0 for any other callable,
    which sees the same nodes on both routes."""
    if not isinstance(f, WeierstrassFunction):
        return 0.0
    return 3.0 * EPS * float(np.sum(f._amps * (1.0 + f._freqs * t_max)))


def _h_sensitivity(h, x_max):
    """(L, e) with |h~(x') - h~(x)| <= L |x' - x| + 2 e for the computed h~ at
    |x|, |x'| <= x_max: h's Lipschitz constant and its call's error."""
    if isinstance(h, WeierstrassFunction):
        return float(h._amps @ h._freqs), _grid_gap(h, x_max)
    if isinstance(h, _Weighted):  # rho h, rho a linear interpolant of cos: |rho|, slopes <= 1
        assert isinstance(h.density, SampledPath) and isinstance(h.h, WeierstrassFunction)
        lip, err = _h_sensitivity(h.h, x_max)
        return lip + float(np.sum(h.h._amps)), err + 4.0 * EPS * float(np.sum(h.h._amps))
    return 1.0, 0.0  # the identity


@pytest.fixture(scope="module")
def rough_case():
    w = ProductField(make_weierstrass(0.6, 12), ident)
    phi = make_weierstrass(0.7, 12)
    reg = Regularity(0.6, 1.0, 0.7)
    cfg = QuadratureConfig(n_outer=1024, tol=5e-3)
    return w, phi, reg, cfg


# ---------------------------------------------------------------------------
# fractional evaluator


def test_time_only_field_gives_increment():
    w = ProductField(np.sin, one)
    rep = integrate_fractional(w, ident, SMOOTH, 0.0, 1.0, with_bounds=False)
    assert rep.value == pytest.approx(math.sin(1.0), abs=1e-6)
    assert rep.method == "fractional"
    assert rep.alpha == 0.5


def test_linear_field_linear_path():
    w = ProductField(ident, ident)
    rep = integrate_fractional(w, ident, SMOOTH, 0.0, 1.0, with_bounds=False)
    assert rep.value == pytest.approx(0.5, abs=1e-5)


def test_sine_field_square_path():
    w = ProductField(np.sin, ident)
    phi = make_function("monomial:p=2")
    rep = integrate_fractional(w, phi, SMOOTH, 0.0, 1.0, with_bounds=False)
    assert rep.value == pytest.approx(2.0 * math.cos(1.0) - math.sin(1.0), abs=1e-5)


def test_inadmissible_regularity_rejected():
    w = ProductField(np.sin, ident)
    with pytest.raises(RegularityError):
        integrate_fractional(w, ident, Regularity(0.5, 1.0, 0.4, 0.6), 0.0, 1.0)
    with pytest.raises(RegularityError):
        integrate_fractional(w, ident, Regularity(0.6, 1.0, 0.7, 0.9), 0.0, 1.0)


def test_reduction_to_young_integral(rough_case):
    # product media reduce to the classical integral int phi dg
    w, phi, reg, cfg = rough_case
    rep = integrate_fractional(w, phi, reg, 0.0, 1.0, cfg, with_bounds=False)
    young = young_integral(phi, w.g, reg.gamma, reg.tau, 0.0, 1.0)
    assert abs(rep.value - young.value) <= 5.0 * (rep.error_estimate + young.error_estimate)


GRID_ROUTE_SERIES = (
    make_weierstrass(0.7, 12, phases=[0.3] * 12),
    make_weierstrass(0.8, 10),
    make_weierstrass(0.625, 12),
)


def test_separable_media_take_the_grid_route():
    # W = g(t) h(x): the fractional expansion is the Young form of int h(phi) dg;
    # plain callables see the same nodes on both sides, so the bits agree
    g, h, phi = (_Counting(f) for f in GRID_ROUTE_SERIES)
    reg = Regularity(0.7, 0.8, 0.625)
    cfg = QuadratureConfig(n_outer=256)
    rep = integrate_fractional(ProductField(g, h), phi, reg, 0.1, 0.9, cfg, with_bounds=False)
    quad = dl_dr_integral(lambda t: h(phi(t)), g, reg.alpha, 0.1, 0.9, cfg=cfg)
    assert (rep.value, rep.error_estimate, rep.converged) == (quad.value, quad.error_estimate, quad.converged)
    assert rep.params["grid_cells"] == cfg.grid_cells() == 4096
    # only n_outer, through grid_cells, shapes the grid route
    assert "n_nodes" not in rep.params and "n_triple" not in rep.params
    ts, xs = np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 2.0, 9)
    grid = GridField(ts, xs, ts[:, None] * xs[None, :])
    assert integrate_fractional(grid, ident, SMOOTH, 0.0, 1.0, cfg, with_bounds=False).params["grid_cells"] == 4096


def test_separable_media_grid_route_of_raw_series_within_evaluator_bound():
    # the kernel is linear in each row: its value moves by at most
    # sum_j |d value / d f_j| df + sum_j |d value / d g_j| dg, plus rounding
    reg = Regularity(0.7, 0.8, 0.625)
    cfg = QuadratureConfig(n_outer=64)
    g, h, phi = GRID_ROUTE_SERIES
    raw = integrate_fractional(ProductField(g, h), phi, reg, 0.1, 0.9, cfg, with_bounds=False)
    plain = integrate_fractional(ProductField(_Counting(g), _Counting(h)), _Counting(phi), reg, 0.1, 0.9, cfg,
                                 with_bounds=False)
    phi_v, g_v = grid_rows((_Counting(phi), _Counting(g)), 0.1, 0.9, cfg)
    f_v = h(phi_v)
    unit = np.eye(phi_v.size)

    def odd(n):  # the 256-cell cap is the start grid: no rung samples
        raise AssertionError(f"a {n}-cell rung past the cap")

    d_f = np.array([dl_dr_sampled(u, g_v, reg.alpha, 0.1, 0.9, cfg, odd).value for u in unit])
    d_g = np.array([dl_dr_sampled(f_v, u, reg.alpha, 0.1, 0.9, cfg, odd).value for u in unit])
    lip, err = _h_sensitivity(h, float(np.max(np.abs(phi_v))) + _grid_gap(phi, 0.9))
    df = lip * _grid_gap(phi, 0.9) + 2.0 * err
    dg = _grid_gap(g, 0.9)
    rounding = 2.0 * phi_v.size * EPS * float(np.abs(d_f) @ np.abs(f_v))
    assert abs(raw.value - plain.value) <= float(np.sum(np.abs(d_f))) * df + float(np.sum(np.abs(d_g))) * dg + rounding


def test_series_sampled_on_grids_are_never_called():
    g, h, phi = _CountingSeries(0.6, 12), _CountingSeries(0.9, 10), _CountingSeries(0.7, 12)
    rep, _ = integrate_sewing(ProductField(g, h), phi, 0.0, 1.0, max_levels=10, tol=0.0)
    assert g.points == phi.points == 0
    assert h.points == 2**rep.levels_used + 1  # h(phi) stays on the call
    # one factorization per series and sweep: with tol 0 a solve sweeps once,
    # to max_levels; at the default tol, to the floor level 14 and on to 16
    assert (g.builds, phi.builds, h.builds) == (1, 1, 0)
    integrate_sewing(ProductField(g, h), phi, 0.0, 1.0, max_levels=16, tol=0.0)
    assert (g.builds, phi.builds, h.builds) == (2, 2, 0)
    rep, _ = integrate_sewing(ProductField(g, h), phi, 0.0, 1.0, max_levels=16)
    assert rep.params["sweeps"] == [14, 16]
    assert (g.builds, phi.builds, h.builds) == (4, 4, 0)
    assert g.points == phi.points == 0
    reg = Regularity(0.6, 0.9, 0.7)
    cfg = QuadratureConfig(n_outer=64)
    integrate_fractional(ProductField(g, h), phi, reg, 0.0, 1.0, cfg, with_bounds=False)
    dl_dr_integral(phi, g, 0.5, 0.0, 1.0, cfg=cfg)
    assert g.points == phi.points == 0


def test_holder_bound_ratio_reported(rough_case):
    w, phi, reg, cfg = rough_case
    rep = integrate_fractional(w, phi, reg, 0.0, 1.0, cfg)
    assert "holder" in rep.bound_ratios
    assert 0.0 <= rep.bound_ratios["holder"] < 10.0


# ---------------------------------------------------------------------------
# sewing


def test_sewing_additive_germ_telescopes_exactly():
    w = ProductField(np.sin, one)
    rep, trace = integrate_sewing(w, ident, 0.0, 1.0)
    assert all(s == trace.sums[0] for s in trace.sums)
    assert rep.value == pytest.approx(math.sin(1.0), abs=1e-14)


def test_sewing_linear_case_first_order():
    w = ProductField(ident, ident)
    rep, trace = integrate_sewing(w, ident, 0.0, 1.0, max_levels=14, tol=0.0)
    assert rep.value == pytest.approx(0.5, abs=1e-6)
    assert trace.fitted_order(4, 12) == pytest.approx(1.0, abs=0.1)


def test_sewing_converges_and_traces(rough_case):
    w, phi, reg, _ = rough_case
    rep, trace = integrate_sewing(w, phi, 0.0, 1.0, max_levels=16)
    assert rep.levels_used == 16
    assert rep.converged
    assert trace.fitted_order(8, 14) >= 0.2  # epsilon - 0.1 for eps = 0.3
    assert len(trace.sums) == 17


def _sewing_media(wrap):
    rng = np.random.RandomState(11)
    g = wrap(make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 2.0 * np.pi, 12))))
    h = wrap(make_weierstrass(0.9, 10, phases=list(rng.uniform(0.0, 2.0 * np.pi, 10))))
    xs = np.linspace(-3.0, 3.0, 17)
    return {
        "weierstrass-product": ProductField(g, h),
        "sin-product": ProductField(np.sin, ident),
        "sampled-g-product": ProductField(sample_function(g, 0.0, 1.0, 300), h),
        "grid": GridField(np.linspace(0.0, 1.0, 33), xs, rng.randn(33, xs.size)),
        "diagonal": DiagonalField(ProductField(g, h), sample_function(np.cos, -3.0, 3.0, 256)),
    }


# the series behind plain callables (every sample a call), and the raw series
SEWING_MEDIA = _sewing_media(_Counting)
RAW_SEWING_MEDIA = _sewing_media(lambda f: f)
RAW_SEWING_PHI = make_weierstrass(0.7, 12, phases=[0.3 * k for k in range(12)])
SEWING_PHI = _Counting(RAW_SEWING_PHI)


def _one_shot_germ_levels(w, phi, a, b, last, first=0):
    """Germ arrays of the dyadic levels first..last with one germ call on
    every node of every level."""
    germ = Germ(w, phi)
    for k in range(first, last + 1):
        ts = np.linspace(a, b, 2**k + 1)
        yield germ(ts[:-1], ts[1:])


def _naive_germ_sums(w, phi, a, b, levels):
    """The sums of the levels 0..levels of _one_shot_germ_levels."""
    return tuple(float(np.sum(level)) for level in _one_shot_germ_levels(w, phi, a, b, levels))


def _naive_term_sums(w, phi, a, b, levels):
    """Level sums of sum_k (g_k(t_(i+1)) - g_k(t_i)) h_k(phi(t_i)) over w's
    separable terms, added in term order, with g_k, h_k and phi called once
    on the nodes of each level: the germ that node reuse forms."""
    sums = []
    for k in range(levels + 1):
        ts = np.linspace(a, b, 2**k + 1)
        x = phi(ts[:-1])
        level = None
        for g, h in w.separable_terms():
            gt = g(ts)
            term = (gt[1:] - gt[:-1]) * h(x)
            level = term if level is None else level + term
        sums.append(float(np.sum(level)))
    return tuple(sums)


@pytest.mark.parametrize("name", sorted(SEWING_MEDIA))
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
def test_sewing_sums_bitwise_equal_naive_germ_sums(name, interval):
    # the series sit behind plain callables, so both sides see the same nodes
    w = SEWING_MEDIA[name]
    a, b = interval
    rep, trace = integrate_sewing(w, SEWING_PHI, a, b, max_levels=12, tol=0.0)
    assert rep.levels_used == 12
    if len(w.separable_terms()) <= nonlinear._REUSE_TERMS:
        # node reuse sums the terms' germ: plain differences of a sampled g
        # where the germ takes g.diff, dg (rho h) of a diagonal medium where
        # the germ takes rho (dg h)
        assert trace.sums == _naive_term_sums(w, SEWING_PHI, a, b, 12)
        assert trace.sums == pytest.approx(_naive_germ_sums(w, SEWING_PHI, a, b, 12), rel=1e-13)
    else:
        assert trace.sums == _naive_germ_sums(w, SEWING_PHI, a, b, 12)


@pytest.mark.parametrize("name", ["grid", "sampled-g-product"])
def test_sewing_levels_from_first_to_last(name):
    w = SEWING_MEDIA[name]
    whole = list(nonlinear.sewing_levels(w, SEWING_PHI, 0.13, 0.71, 9))
    tail = list(nonlinear.sewing_levels(w, SEWING_PHI, 0.13, 0.71, 9, 7))
    assert [level.size for level in whole] == [2**k for k in range(10)]
    assert len(tail) == 3
    for got, want in zip(tail, whole[7:]):
        np.testing.assert_array_equal(got, want)
    for last, first in [(3, -1), (3, 4), (0, 0)]:
        with pytest.raises(ValueError, match="first"):
            nonlinear.sewing_levels(w, SEWING_PHI, 0.13, 0.71, last, first)


@pytest.mark.parametrize("max_levels", [2, 3, 12])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
@pytest.mark.parametrize("block", [None, 100])
def test_one_term_sewing_sums_keep_their_bits(max_levels, interval, block, monkeypatch):
    # the sweep's pieces have the bits of the germ on the level's nodes; a
    # block of 100 entries makes pieces of 64 intervals, too short to sum
    # by piece, so level 12 is formed whole from the nodes of its 64 pieces
    if block:
        monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", block)
    rep, trace = integrate_sewing(SEWING_MEDIA["weierstrass-product"], SEWING_PHI, *interval,
                                  max_levels=max_levels, tol=0.0)
    assert rep.levels_used == max_levels
    assert trace.sums == _naive_germ_sums(SEWING_MEDIA["weierstrass-product"], SEWING_PHI, *interval, max_levels)


@pytest.mark.parametrize("name", ["weierstrass-product", "sin-product", "sampled-g-product", "diagonal"])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
@pytest.mark.parametrize("block", [2**7, 2**9])
def test_term_sweep_pieces_keep_their_bits(name, interval, block, monkeypatch):
    # a level-12 solve spans 32 or 8 pieces: level 12 or levels 10-12 are
    # summed by piece, the coarser ones formed whole from the gathered nodes
    monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", block)
    w = SEWING_MEDIA[name]
    _, trace = integrate_sewing(w, SEWING_PHI, *interval, max_levels=12, tol=0.0)
    assert trace.sums == _naive_term_sums(w, SEWING_PHI, *interval, 12)


def _contract(f, ts):
    """The series evaluators' accuracy contract at the points ts (see
    test_paths._grid_bound): 3 eps sum_k A_k (1 + F_k max|t| + |p_k|)."""
    spread = 1.0 + f._freqs * np.max(np.abs(ts)) + np.abs(f.phases)
    return 3.0 * EPS * float(np.sum(f._amps * spread))


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71), (-2.5, 1.5)])
@pytest.mark.parametrize("block, last", [(2**9, 12), (2**7, 9), (2**9, 9), (None, 16)])
def test_sweep_series_rows_match_on_grid(interval, block, last, monkeypatch):
    # the sweep factors each series once over the 2^last + 1 nodes, in rows
    # of m = 2^ceil(last / 2) nodes but at most a piece, and multiplies each
    # piece's rows into its buffer, the piece's left node carried from the
    # piece before: 8 pieces of 512 at level 12 (m = 64), 4 of 128 at level 9
    # (m = 32), one of 512 (m = 32), 2 of 2^15 at level 16 (m = 256)
    if block:
        monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", block)
    a, b = interval
    g = make_weierstrass(0.6, 12, phases=[0.7 * k + 0.2 for k in range(12)])
    phi = make_weierstrass(0.7, 12, phases=[0.3 * k for k in range(12)])
    pieces, entries = [], nonlinear._term_entries

    def keep(rows, s):  # the finest level is formed by piece from the rows whole
        if s == 1:
            pieces.append([row.copy() for row in rows])
        return entries(rows, s)

    monkeypatch.setattr(nonlinear, "_term_entries", keep)
    list(nonlinear.sewing_levels(ProductField(g, ident), phi, a, b, last, last))
    n = 2**last
    piece = min(n, 1 << ((block or nonlinear._BLOCK_ENTRIES).bit_length() - 1))
    assert len(pieces) == n // piece and all(p[0].size == piece + 1 for p in pieces)
    for before, after in zip(pieces, pieces[1:]):  # the carried left node
        assert after[0][0] == before[0][-1] and after[1][0] == before[1][-1]
    step = (b - a) / n
    ts = np.linspace(a, b, n + 1)
    for f, k in ((g, 0), (phi, 1)):  # rows g and h(phi) = phi
        got = np.concatenate([pieces[0][k]] + [p[k][1:] for p in pieces[1:]])
        want = f.on_grid(a, step, n + 1)
        bound = _contract(f, ts)
        assert float(np.max(np.abs(got - want))) <= bound
        # at each piece join, on the first factor row of every piece after
        # the first (its left node carried, the rest of the row its own),
        # and at node b, against the call too
        for j in range(len(pieces)):
            row = slice(j * piece, j * piece + min(piece, 1 << ((last + 1) // 2)))
            assert float(np.max(np.abs(got[row] - want[row]))) <= bound
            assert float(np.max(np.abs(got[row] - f(ts[row])))) <= bound
        assert abs(got[-1] - f(b)) <= bound and abs(got[-1] - want[-1]) <= bound


@pytest.mark.parametrize("k", [7, 8, 12, 16, 20])
def test_np_sum_is_the_tree_of_aligned_chunk_sums(k):
    # numpy sums a 2^k array as the sum of its halves, down to leaves of 128
    # entries; the sewing sweep relies on it to sum a level by pieces
    x = np.random.RandomState(k).randn(2**k)
    for j in range(7, k + 1):
        assert np.sum(x) == nonlinear._tree_sum([np.sum(c) for c in x.reshape(-1, 2**j)])


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.3, 0.9)])
def test_sampled_g_on_exactly_the_interval(interval, monkeypatch):
    # g is defined on [a, b] only, so a node of the sweep past b raises; on
    # [0.3, 0.9] (b - a) + a rounds to the float after b, where g clamps but
    # sin does not, so the last node must be b itself to keep the bits.
    # 8 pieces at level 12, 32 at level 14
    monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", 2**9)
    a, b = interval
    g = sample_function(make_weierstrass(0.6, 12), a, b, 300)
    with pytest.raises(ValueError, match="outside domain"):
        g(np.array([b + 1e-9]))
    w = SumField(ProductField(g, np.cos), ProductField(np.sin, ident))
    _, trace = integrate_sewing(w, SEWING_PHI, a, b, max_levels=14, tol=0.0)
    assert trace.sums == _naive_term_sums(w, SEWING_PHI, a, b, 14)


@pytest.mark.parametrize("rank", [4, 5, 6])
def test_grid_rank_picks_the_sewing_route(rank, monkeypatch):
    # every grid is sewn by one sweep, phi sampled once per node, on 1, 8
    # and 32 pieces; the rank picks the entries: the terms' germ up to rank
    # 5, the grid's own increments from rank 6 on
    assert nonlinear._REUSE_TERMS == 5
    rng = np.random.RandomState(rank)
    ts, xs = np.linspace(0.0, 1.0, 65), np.linspace(-3.0, 3.0, 17)
    w = GridField(ts, xs, rng.randn(ts.size, rank) @ rng.randn(rank, xs.size))
    assert len(w.separable_terms()) == rank
    raw_phi = _phased(rng, 0.7, 12)
    for block in (2**15, 2**9, 2**7):
        monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", block)
        phi = _Counting(raw_phi)
        _, trace = integrate_sewing(w, phi, 0.13, 0.71, max_levels=12, tol=0.0)
        assert phi.points == 2**12 + 1
        if rank <= 5:
            assert trace.sums == _naive_term_sums(w, phi, 0.13, 0.71, 12)
            assert trace.sums == pytest.approx(_naive_germ_sums(w, phi, 0.13, 0.71, 12), rel=1e-13)
        else:
            assert trace.sums == _naive_germ_sums(w, phi, 0.13, 0.71, 12)


@pytest.mark.parametrize("kind", ["sum", "diagonal"])
@pytest.mark.parametrize("max_levels, tol", [(10, 0.0), (16, 1e-4), (16, 1e-3)])
def test_multi_term_sewing_evaluates_each_node_once(kind, max_levels, tol):
    # np.sin has no finest_frequency, so the floor level is max_levels: one
    # sweep over 2^max_levels + 1 nodes
    gs = [_Counting(make_weierstrass(0.6, 12)), _Counting(make_weierstrass(0.8, 10, phases=[0.5] * 10))]
    hs = [_Counting(ident), _Counting(np.cos)]
    phi = _Counting(np.sin)
    w = SumField(ProductField(gs[0], hs[0]), ProductField(gs[1], hs[1]))
    if kind == "diagonal":
        w = DiagonalField(w, _Counting(np.exp))
    rep, _ = integrate_sewing(w, phi, 0.0, 1.0, max_levels=max_levels, tol=tol)
    assert rep.params["stop_reason"] == ("tol" if tol else "max_levels")
    assert rep.params["sweeps"] == [max_levels]
    nodes = 2**max_levels + 1
    assert [f.points for f in (*gs, *hs, phi)] == [nodes] * 5
    if kind == "diagonal":  # each term's h_k is rho * h, rho called once per term
        assert w.density.points == 2 * nodes


def _series_sum_bounds(g, h, phi, a, b, levels):
    """Per level k, how far the sewing sums of raw series may lie from those of
    the same functions behind plain callables.

    The level-k sum is sum_i (g_(i+1) - g_i) h(phi_i) over 2^k cells.  The grid
    evaluator moves each g sample by at most dg and each h(phi) by at most
    dh = L dphi + 2 e, so the sum moves by at most
    2^k (2 dg max|h(phi)| + max|g_(i+1) - g_i| dh), plus each side's rounding.
    """
    t_max = max(abs(a), abs(b))
    dg, dphi = _grid_gap(g, t_max), _grid_gap(phi, t_max)
    phi_fine = phi(np.linspace(a, b, 2**levels + 1))
    lip, err = _h_sensitivity(h, float(np.max(np.abs(phi_fine))) + dphi)
    dh = lip * dphi + 2.0 * err if dphi > 0.0 else 0.0
    h_max = float(np.max(np.abs(h(phi_fine)))) + dh
    bounds = []
    for k in range(levels + 1):
        cells = 2**k
        g_osc = float(np.max(np.abs(np.diff(g(np.linspace(a, b, cells + 1)))))) + 2.0 * dg
        rounding = 2.0 * (k + 2) * EPS * cells * g_osc * h_max
        bounds.append(cells * (2.0 * dg * h_max + g_osc * dh) + rounding)
    return np.array(bounds)


# a level of up to 2^15 intervals is one piece, finer ones several; with
# pieces of 2^9 intervals levels 12-15 span 8-64 pieces
@pytest.mark.parametrize("max_levels", [12, 13, 14, 15])
@settings(derandomize=True, deadline=None, max_examples=6)
@given(
    seed=st.integers(0, 2**31 - 1),
    kind=st.sampled_from(["grid", "sum", "difference"]),
    interval=st.sampled_from([(0.0, 1.0), (0.13, 0.71)]),
)
def test_blocked_germ_sums_bitwise_equal_one_shot(max_levels, seed, kind, interval):
    rng = np.random.RandomState(seed)
    ts, xs = np.linspace(0.0, 1.0, 65), np.linspace(-3.0, 3.0, 17)
    w = GridField(ts, xs, rng.randn(ts.size, xs.size))
    if kind == "sum":
        w = SumField(w, ProductField(_phased(rng, 0.6, 10), np.sin))
    elif kind == "difference":
        w = DifferenceField(w, GridField(ts, xs, rng.randn(ts.size, xs.size)))
    assert len(w.separable_terms()) > nonlinear._REUSE_TERMS
    phi = _Counting(_phased(rng, 0.7, 12))
    a, b = interval
    want = _naive_germ_sums(w, phi, a, b, max_levels)
    for block in (None, 2**9):
        with pytest.MonkeyPatch.context() as mp:
            if block:
                mp.setattr(nonlinear, "_BLOCK_ENTRIES", block)
            _, trace = integrate_sewing(w, phi, a, b, max_levels=max_levels, tol=0.0)
        assert trace.sums == want


def test_sewing_holds_no_finished_level():
    # the finest level of a 2^18 solve would be 2 MB and its nodes 2 MB per
    # row; the sweep holds a piece of 2^15 intervals of each row at a time
    w = RAW_SEWING_MEDIA["weierstrass-product"]
    integrate_sewing(w, RAW_SEWING_PHI, 0.0, 1.0, max_levels=8)  # the series' own setup
    tracemalloc.start()
    try:
        rep, _ = integrate_sewing(w, RAW_SEWING_PHI, 0.0, 1.0, max_levels=18, tol=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.levels_used == 18
    assert peak < 2.5e6


@pytest.mark.parametrize("name", ["diagonal", "sin-product", "weierstrass-product"])
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
def test_sewing_sums_of_raw_series_within_evaluator_bound(name, interval):
    a, b = interval
    _, plain = integrate_sewing(SEWING_MEDIA[name], SEWING_PHI, a, b, max_levels=12, tol=0.0)
    _, raw = integrate_sewing(RAW_SEWING_MEDIA[name], RAW_SEWING_PHI, a, b, max_levels=12, tol=0.0)
    (g, h), = RAW_SEWING_MEDIA[name].separable_terms()
    bounds = _series_sum_bounds(g, h, RAW_SEWING_PHI, a, b, 12)
    assert np.all(np.abs(np.subtract(raw.sums, plain.sums)) <= bounds)


def _germ_sum_bounds(w, phi, a, b, levels):
    """Per level k, how far the sewing sums of a grid along a raw series phi
    may lie from those along phi behind a plain callable.

    The level-k sum is sum_i (W(t_(i+1), phi_i) - W(t_i, phi_i)) over 2^k
    cells.  W is linear in x between its x nodes, with slopes at most L_x in
    magnitude, so the entry moves by at most 2 L_x dphi when the grid
    evaluator moves phi_i by at most dphi.  Each entry takes a few roundings
    of the grid's values, at most M = max|W| in magnitude, and each side's
    sum at most k + 1 roundings of the sum of the |entries| <= 2 M.
    """
    dphi = _grid_gap(phi, max(abs(a), abs(b)))
    slopes = np.diff(w.values, axis=1) / np.diff(w.xs)
    lip, big = float(np.max(np.abs(slopes))), float(np.max(np.abs(w.values)))
    cells = 2.0 ** np.arange(levels + 1)
    return cells * (2.0 * lip * dphi + 2.0 * (np.arange(levels + 1) + 9) * EPS * 2.0 * big)


@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
def test_germ_sums_of_raw_series_phi_within_evaluator_bound(interval):
    # a raw series phi is sampled from its grid factorization on the germ
    # route too, so its sums move off the calls' by at most the bound
    w = RAW_SEWING_MEDIA["grid"]
    assert len(w.separable_terms()) > nonlinear._REUSE_TERMS
    _, plain = integrate_sewing(w, SEWING_PHI, *interval, max_levels=14, tol=0.0)
    _, raw = integrate_sewing(w, RAW_SEWING_PHI, *interval, max_levels=14, tol=0.0)
    bounds = _germ_sum_bounds(w, RAW_SEWING_PHI, *interval, 14)
    assert np.all(np.abs(np.subtract(raw.sums, plain.sums)) <= bounds)


@pytest.mark.parametrize("name", ["weierstrass-product", "grid"])
def test_sewing_early_stop_sums_bitwise_equal(name):
    w = SEWING_MEDIA[name]
    smooth_phi = make_function("sin")
    rep, trace = integrate_sewing(w, smooth_phi, 0.13, 0.71, max_levels=16, tol=1e-4)
    assert rep.params["stop_reason"] == "tol"
    assert rep.levels_used < 16
    assert trace.sums == _naive_germ_sums(w, smooth_phi, 0.13, 0.71, rep.levels_used)


def test_sewing_early_stop_of_raw_series_within_evaluator_bound():
    smooth_phi = make_function("sin")
    plain, plain_trace = integrate_sewing(SEWING_MEDIA["weierstrass-product"], smooth_phi, 0.13, 0.71,
                                          max_levels=16, tol=1e-4)
    w = RAW_SEWING_MEDIA["weierstrass-product"]
    raw, raw_trace = integrate_sewing(w, smooth_phi, 0.13, 0.71, max_levels=16, tol=1e-4)
    assert (raw.params["stop_reason"], raw.levels_used) == ("tol", plain.levels_used)
    (g, h), = w.separable_terms()
    bounds = _series_sum_bounds(g, h, smooth_phi, 0.13, 0.71, raw.levels_used)
    assert np.all(np.abs(np.subtract(raw_trace.sums, plain_trace.sums)) <= bounds)


@pytest.mark.parametrize("max_levels, tol", [(10, 0.0), (16, 1e-4), (16, 1e-3)])
def test_separable_sewing_evaluates_each_node_once(max_levels, tol):
    # a phi of unknown scale (np.sin has no finest_frequency) is sewn in one
    # sweep to max_levels, which meets tol 1e-4 and 1e-3 at level 16
    g = _Counting(make_weierstrass(0.6, 12))
    phi = _Counting(np.sin)
    rep, _ = integrate_sewing(ProductField(g, ident), phi, 0.0, 1.0, max_levels=max_levels, tol=tol)
    assert rep.params["floor_level"] == rep.levels_used == max_levels
    assert rep.params["stop_reason"] == ("tol" if tol else "max_levels")
    assert g.points == phi.points == 2**max_levels + 1


@pytest.mark.parametrize("tol, sweeps", [(1e-3, [14]), (1e-4, [14, 16]), (0.0, [18])])
def test_sewing_sweep_plan(tol, sweeps):
    # g and phi resolve on 2^12 cells of [0, 1], so the floor level is 14:
    # tol 1e-3 stops there, having sampled 2^14 + 1 nodes; 1e-4 in a second
    # sweep, to the level where E, decaying as it did over levels 12-14,
    # meets it, plus one: 2^14 + 1 nodes and then 2^16 + 1; tol 0 forms
    # every level up to max_levels in one sweep
    g = _Counting(make_weierstrass(0.6, 12))
    phi = _Counting(make_weierstrass(0.7, 12))
    rep, trace = integrate_sewing(ProductField(g, ident), phi, 0.0, 1.0, max_levels=18, tol=tol)
    assert rep.params["floor_level"] == 14
    assert rep.params["sweeps"] == sweeps
    assert rep.levels_used == sweeps[-1] and len(trace.sums) == sweeps[-1] + 1
    assert g.points == phi.points == sum(2**last + 1 for last in sweeps)
    assert rep.params["stop_reason"] == ("tol" if tol else "max_levels")
    assert rep.converged == (rep.error_estimate <= tol * max(1.0, abs(rep.value)))


def test_sewing_third_sweep_only_when_the_second_misses(monkeypatch):
    # a second sweep that ends short of tol is followed by one to max_levels
    monkeypatch.setattr(nonlinear, "_predicted_level", lambda est, target, floor, max_levels: floor + 1)
    phi = _Counting(make_weierstrass(0.7, 12))
    w = ProductField(make_weierstrass(0.6, 12), ident)
    rep, _ = integrate_sewing(w, phi, 0.0, 1.0, max_levels=18, tol=1e-5)
    assert rep.params["sweeps"] == [14, 15, 18]
    assert phi.points == 2**14 + 2**15 + 2**18 + 3
    rep, _ = integrate_sewing(w, phi, 0.0, 1.0, max_levels=18, tol=1e-4)
    assert rep.params["sweeps"] == [14, 15]


def test_sewing_second_sweep_level_from_the_estimates_decay():
    # E falls 4x a level (two halvings) over levels F - 2..F: 16x above the
    # target it needs two more levels, plus one
    est = np.array([1.0, 1.0, 1024.0, 256.0, 64.0, 1024.0])
    assert nonlinear._predicted_level(est, 4.0, 4, 18) == 7
    assert nonlinear._predicted_level(est, 4.0, 4, 6) == 6  # at most max_levels
    assert nonlinear._predicted_level(est, 63.0, 4, 18) == 6  # at least F + 2 once E misses
    assert nonlinear._predicted_level(est, 512.0, 4, 18) == 5  # never below F + 1
    assert nonlinear._predicted_level(est, 4.0, 5, 18) == 18  # E does not decay
    assert nonlinear._predicted_level(est, 0.0, 4, 18) == 18  # tol 0 is met nowhere


def test_sewing_stop_reason():
    w = ProductField(ident, ident)
    rep, _ = integrate_sewing(w, ident, 0.0, 1.0, max_levels=8, tol=0.0)
    assert rep.params["stop_reason"] == "max_levels"
    assert rep.levels_used == 8
    rep, _ = integrate_sewing(w, ident, 0.0, 1.0, max_levels=30, tol=1e-3)
    assert rep.params["stop_reason"] == "tol"
    assert rep.levels_used < 30


@pytest.mark.parametrize("max_levels", [-1, 0, 1])
def test_sewing_rejects_fewer_than_two_levels(max_levels):
    # the level-0 sum alone is sin(1) = 0.8415, far from the integral
    # sin(1) - 1 + cos(1) = 0.7273, with no difference to estimate its error
    w = ProductField(np.sin, ident)
    with pytest.raises(ValueError, match="max_levels"):
        integrate_sewing(w, np.cos, 0.0, 1.0, max_levels=max_levels)


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_non_finite_endpoints_rejected(a, b):
    w = ProductField(np.sin, ident)
    with pytest.raises(ValueError, match="finite"):
        integrate_sewing(w, ident, a, b)
    with pytest.raises(ValueError, match="finite"):
        integrate_fractional(w, ident, SMOOTH, a, b, with_bounds=False)


def test_sewing_non_finite_value_is_not_converged():
    # h(phi(0)) = 0**-0.5 is infinite, so every sum is inf and the estimate NaN
    w = ProductField(ident, make_function("monomial:p=-0.5"))
    rep, _ = integrate_sewing(w, ident, 0.0, 1.0, max_levels=8)
    assert not math.isfinite(rep.value)
    assert rep.converged is False


def _margin_grid(margin):
    """A two-mode grid whose x axis covers the path's values with the given
    margin on each side, as a share of their span, and the path."""
    phi = sample_function(make_weierstrass(0.6, 10), 0.0, 1.0, 1024)
    lo, hi = phi.values.min(), phi.values.max()
    ts = np.linspace(0.0, 1.0, 65)
    xs = np.linspace(lo - margin * (hi - lo), hi + margin * (hi - lo), 33)
    a_t, b_t = make_weierstrass(0.7, 6)(ts), np.cos(3.0 * ts)
    values = a_t[:, None] * xs + b_t[:, None] * np.sin(1.3 * xs + 0.4)
    return GridField(ts, xs, values), phi


def test_seminorm_box_clipped_to_a_thin_grid_axis():
    grid, phi = _margin_grid(0.02)
    reg = Regularity(0.7, 1.0, 0.6)
    cfg = QuadratureConfig(tol=1e-3)
    rep = integrate_fractional(grid, phi, reg, 0.0, 1.0, cfg)
    assert rep.bound_ratios["holder"] > 0.0
    norms = estimate_norms(grid, phi, reg, 0.0, 1.0)
    assert norms.box == (grid.xs[0], grid.xs[-1])
    other = GridField(grid.ts, grid.xs, 0.5 * grid.values)
    assert stability_in_medium(grid, other, phi, reg, 0.0, 1.0, cfg).term2 > 0.0
    phi2 = SampledPath(phi.ts, 0.99 * phi.values + 0.01 * phi.values.mean())
    assert stability_in_path(grid, phi, phi2, reg, 0.8, 0.0, 1.0, cfg).term2 > 0.0


def test_seminorm_box_kept_inside_a_wide_grid_axis():
    grid, phi = _margin_grid(0.1)
    box = nonlinear._phi_box(phi, 0.0, 1.0)
    assert nonlinear._seminorm_box(grid, box) == box
    assert estimate_norms(grid, phi, Regularity(0.7, 1.0, 0.6), 0.0, 1.0).box == box


def test_two_term_grid_sewing_off_its_axes_raises():
    # node reuse reads the grid's terms, which exist on its axes only
    grid, phi = _margin_grid(-0.05)  # the x axis misses the path's extremes
    assert len(grid.separable_terms()) == 2
    lo, hi = grid.xs[0], grid.xs[-1]
    with pytest.raises(ValueError, match=rf"outside domain \[{lo:g}, {hi:g}\]"):
        integrate_sewing(grid, phi, 0.0, 1.0)
    grid, _ = _margin_grid(0.1)
    centre = float(grid.xs[16])
    with pytest.raises(ValueError, match=r"outside domain \[0, 1\]"):  # the time axis
        integrate_sewing(grid, lambda t: np.full(np.shape(t), centre), 0.0, 1.5)


def test_cross_method_agreement(rough_case):
    w, phi, reg, cfg = rough_case
    rf = integrate_fractional(w, phi, reg, 0.0, 1.0, cfg, with_bounds=False)
    rs, _ = integrate_sewing(w, phi, 0.0, 1.0)
    diff = abs(rf.value - rs.value)
    assert diff <= 5.0 * (rf.error_estimate + rs.error_estimate)
    assert diff <= 0.02 * abs(rs.value)


def test_method_additivity(rough_case):
    w, phi, reg, _ = rough_case
    cfg = QuadratureConfig(n_outer=768, tol=5e-3)
    c = 0.37
    full = integrate_fractional(w, phi, reg, 0.0, 1.0, cfg, with_bounds=False)
    left = integrate_fractional(w, phi, reg, 0.0, c, cfg, with_bounds=False)
    right = integrate_fractional(w, phi, reg, c, 1.0, cfg, with_bounds=False)
    assert abs(full.value - left.value - right.value) <= (
        full.error_estimate + left.error_estimate + right.error_estimate
    )


def test_grid_field_end_to_end():
    # a tabulated bilinear medium runs through its 33 separable terms
    ts = np.linspace(0.0, 1.0, 33)
    xs = np.linspace(-0.25, 1.25, 33)
    grid = GridField(ts, xs, ts[:, None] * xs[None, :])
    cfg = QuadratureConfig(n_outer=256)
    rep = integrate_fractional(grid, ident, SMOOTH, 0.0, 1.0, cfg, with_bounds=False)
    assert rep.value == pytest.approx(0.5, abs=1e-4)
    assert (rep.params["n_outer"], rep.params["grid_cells"]) == (256, 4096)
    assert "n_nodes" not in rep.params and "n_triple" not in rep.params
    rs, _ = integrate_sewing(grid, ident, 0.0, 1.0)
    assert rs.value == pytest.approx(0.5, abs=1e-6)


def test_non_separable_grid_within_estimate_of_sewing():
    # a rank-2 grid medium W = a(t) x + b(t) sin(1.3 x + c), not a product
    rng = np.random.RandomState(0)
    phi = sample_function(make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 2.0 * np.pi, 12))),
                          0.0, 1.0, 4096)
    lo, hi = float(np.min(phi.values)), float(np.max(phi.values))
    ts = np.linspace(0.0, 1.0, 257)
    xs = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 65)
    a_t, b_t = (make_weierstrass(0.7, 8, phases=list(rng.uniform(0.0, 2.0 * np.pi, 8)))(ts) for _ in range(2))
    grid = GridField(ts, xs, a_t[:, None] * xs[None, :] + b_t[:, None] * np.sin(1.3 * xs[None, :] + 0.4))
    reg = Regularity(0.7, 1.0, 0.6)
    rep = integrate_fractional(grid, phi, reg, 0.0, 1.0, with_bounds=False)
    sew, _ = integrate_sewing(grid, phi, 0.0, 1.0, max_levels=18, tol=0.0)
    assert rep.error_estimate <= 1e-3
    assert abs(rep.value - sew.value) <= rep.error_estimate


def _phased(rng, H, scales):
    return make_weierstrass(H, scales, phases=list(rng.uniform(0.0, 2.0 * np.pi, scales)))


@settings(derandomize=True, deadline=None, max_examples=4)
@given(seed=st.integers(0, 2**31 - 1))
def test_fractional_is_linear_in_the_medium(seed):
    rng = np.random.RandomState(seed)
    w1 = ProductField(_phased(rng, 0.7, 10), _phased(rng, 0.8, 8))
    w2 = ProductField(_phased(rng, 0.75, 10), _phased(rng, 0.9, 8))
    phi = _phased(rng, 0.625, 10)
    rho = sample_function(np.cos, -4.0, 4.0, 256)
    reg = Regularity(0.7, 0.8, 0.625)
    cfg = QuadratureConfig(n_outer=64)

    def frac(w):
        return integrate_fractional(w, phi, reg, 0.0, 1.0, cfg, with_bounds=False).value

    i1, i2 = frac(w1), frac(w2)
    d1, d2 = frac(DiagonalField(w1, rho)), frac(DiagonalField(w2, rho))
    for combined, expected in [
        (frac(SumField(w1, w2)), i1 + i2),
        (frac(DifferenceField(w1, w2)), i1 - i2),
        (frac(DiagonalField(SumField(w1, w2), rho)), d1 + d2),
        (frac(DiagonalField(DifferenceField(w1, w2), rho)), d1 - d2),
    ]:
        assert abs(combined - expected) <= 1e-12 * max(1.0, abs(expected))


class _Unexpanded(Field):
    """A medium given only by eval, with no separable expansion."""

    def eval(self, t, x):
        return np.sin(np.asarray(t) * np.asarray(x))


def test_medium_without_separable_terms_rejected_before_sampling():
    phi = _Counting(np.sin)
    with pytest.raises(ValueError, match="GridField"):
        integrate_fractional(_Unexpanded(), phi, SMOOTH, 0.0, 1.0)
    assert phi.points == 0


@pytest.mark.parametrize("max_levels", [12, 14])
@pytest.mark.parametrize("block", [2**15, 2**9, 2**7])
def test_medium_without_separable_terms_sewn_from_its_increments(max_levels, block, monkeypatch):
    # one piece, or 8 and 32 pieces at level 12 (32 and 128 at level 14)
    monkeypatch.setattr(nonlinear, "_BLOCK_ENTRIES", block)
    w = _Unexpanded()
    assert w.separable_terms() is None
    phi = _Counting(np.sin)
    rep, trace = integrate_sewing(w, phi, 0.13, 0.71, max_levels=max_levels, tol=0.0)
    assert rep.levels_used == max_levels
    assert phi.points == 2**max_levels + 1
    assert trace.sums == _naive_germ_sums(w, np.sin, 0.13, 0.71, max_levels)


def test_degenerate_constant_path_collapses():
    w = ProductField(np.sin, make_function("monomial:p=2"))
    const_phi = make_function("const:c=0.7")
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    expected = w.eval(1.0, 0.7) - w.eval(0.0, 0.7)
    rep = integrate_fractional(w, const_phi, reg, 0.0, 1.0, with_bounds=False)
    assert rep.value == pytest.approx(expected, abs=1e-6 * max(1.0, abs(expected)))
    rs, _ = integrate_sewing(w, const_phi, 0.0, 1.0)
    assert rs.value == pytest.approx(expected, abs=1e-6 * max(1.0, abs(expected)))


# ---------------------------------------------------------------------------
# germ consistency


def test_germ_vanishes_on_diagonal(rough_case):
    w, phi, _, _ = rough_case
    germ = Germ(w, phi)
    ss = np.linspace(0.0, 1.0, 37)
    assert np.all(germ(ss, ss) == 0.0)


def test_germ_sewing_defect_bound(rough_case):
    w, phi, reg, _ = rough_case
    germ = Germ(w, phi)
    norms = estimate_norms(w, phi, reg, 0.0, 1.0)
    k_est = norms.field.bracket * norms.path.seminorm**reg.lam
    eps = reg.epsilon()
    rng = np.random.RandomState(0)
    for _ in range(200):
        a, c, b = np.sort(rng.rand(3))
        if b - a < 1e-6:
            continue
        defect = abs(
            float(germ(a, b)) - float(germ(a, c)) - float(germ(c, b))
        )
        rect = w.increment_rect(b, c, phi(a), phi(c))
        assert defect == pytest.approx(abs(float(rect)), abs=1e-12)
        assert defect <= 2.0 * k_est * (b - a) ** (1.0 + eps)


def test_germ_time_envelope(rough_case):
    w, phi, reg, _ = rough_case
    germ = Germ(w, phi)
    norms = estimate_norms(w, phi, reg, 0.0, 1.0)
    rng = np.random.RandomState(1)
    s = rng.rand(500) * 0.9
    t = s + rng.rand(500) * (1.0 - s)
    vals = np.abs(germ(s, t))
    cap = 1.5 * norms.field.norm * (t - s) ** reg.tau
    assert np.all(vals <= cap + 1e-12)


# ---------------------------------------------------------------------------
# alpha independence


def test_alpha_independence_time_only_field():
    w = ProductField(np.sin, one)
    reg = Regularity(0.6, 1.0, 1.0)
    res = alpha_independence(w, ident, reg, 0.0, 1.0, [0.45, 0.55, 0.65])
    assert res.spread <= 1e-6


def test_alpha_independence_smooth_product():
    w = ProductField(np.sin, ident)
    phi = make_function("monomial:p=2")
    res = alpha_independence(w, phi, SMOOTH, 0.0, 1.0, [0.3, 0.45, 0.6, 0.75])
    assert res.spread <= 1e-5


def test_alpha_independence_rough(rough_case):
    w, phi, reg, _ = rough_case
    cfg = QuadratureConfig(n_outer=768, tol=2e-2)
    alphas = [0.45, 0.5, 0.55, 0.6, 0.65]
    res = alpha_independence(w, phi, reg, 0.0, 1.0, alphas, cfg)
    assert res.spread <= 20.0 * res.max_error_estimate


def test_alpha_window_enforced(rough_case):
    w, phi, reg, _ = rough_case
    with pytest.raises(RegularityError):
        alpha_independence(w, phi, reg, 0.0, 1.0, [0.2, 0.5])


# ---------------------------------------------------------------------------
# bound checks


def test_centered_bound_time_only_field():
    w = ProductField(np.sin, one)
    reg = Regularity(0.9, 1.0, 1.0)
    chk = centered_bound_check(w, ident, reg, 0.0, 1.0, 0.3)
    assert chk.numerator <= 1e-6


def test_centered_bound_constant_path():
    w = ProductField(np.sin, ident)
    const_phi = make_function("const:c=0.4")
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    chk = centered_bound_check(w, const_phi, reg, 0.0, 1.0, 0.8)
    assert chk.numerator <= 1e-6
    assert chk.ratio == 0.0  # zero path seminorm: 0 <= 0 up to numerics


def test_centered_bound_requires_interior_point(rough_case):
    w, phi, reg, cfg = rough_case
    with pytest.raises(ValueError):
        centered_bound_check(w, phi, reg, 0.0, 1.0, 1.5, cfg)


def test_refined_bound_hypothesis_gate(rough_case):
    w, _, reg, cfg = rough_case
    bad_phi = lambda t: 3.0 * np.asarray(t, dtype=float) ** 0.5  # too steep at a
    with pytest.raises(ValueError):
        refined_bound_check(w, bad_phi, reg, 0.0, 1.0, 1.0, 1.0, 1.2, cfg)
    with pytest.raises(ValueError):
        # ell must exceed gamma
        refined_bound_check(w, ident, reg, 0.0, 1.0, 0.5, 1.0, 1.2, cfg)


def test_refined_bound_constant_path(rough_case):
    w, _, reg, cfg = rough_case
    const_phi = make_function("const:c=0.0")
    chk = refined_bound_check(w, const_phi, reg, 0.0, 0.5, 1.0, 1.0, 1.2, cfg)
    assert chk.numerator <= 1e-4


# ---------------------------------------------------------------------------
# indefinite integral


def test_indefinite_time_only():
    w = ProductField(np.sin, one)
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    res = indefinite_integral(w, ident, reg, 0.0, 1.0, n_points=33)
    expected = np.sin(res.path.ts)
    np.testing.assert_allclose(res.path.values, expected, atol=1e-6)


def test_indefinite_linear_case():
    w = ProductField(ident, ident)
    cfg = QuadratureConfig(n_nodes=1024, n_outer=256)
    res = indefinite_integral(w, ident, SMOOTH, 0.0, 1.0, n_points=65, cfg=cfg)
    np.testing.assert_allclose(res.path.values, res.path.ts**2 / 2.0, atol=1e-5)


def test_indefinite_one_fractional_call_per_increment(monkeypatch):
    # perfbench's many-short times each subinterval by wrapping the module's
    # integrate_fractional: one call per increment, its value the increment
    from nlyoung import nonlinear

    calls = []

    def counted(*args, **kwargs):
        rep = real(*args, **kwargs)
        calls.append((args[3], args[4], args[5], rep.value))
        return rep

    real = nonlinear.integrate_fractional
    monkeypatch.setattr(nonlinear, "integrate_fractional", counted)
    w = ProductField(np.sin, np.cos)
    res = indefinite_integral(w, ident, SMOOTH, 0.0, 1.0, n_points=17)
    assert len(calls) == 16
    assert [(a, b) for a, b, _, _ in calls] == list(zip(res.path.ts[:-1], res.path.ts[1:]))
    assert {cfg.grid_cells() for _, _, cfg, _ in calls} == {576}
    values = np.concatenate([[0.0], np.cumsum([v for *_, v in calls])])
    assert np.array_equal(res.path.values, values)
    # n_nodes shapes nothing on the fractional route
    old = indefinite_integral(w, ident, SMOOTH, 0.0, 1.0, n_points=17, cfg=QuadratureConfig(n_nodes=512, n_outer=96))
    assert np.array_equal(res.path.values, old.path.values)


def test_indefinite_requires_enough_points():
    w = ProductField(np.sin, one)
    with pytest.raises(ValueError):
        indefinite_integral(w, ident, SMOOTH, 0.0, 1.0, n_points=5)


# ---------------------------------------------------------------------------
# stability


def test_stability_in_medium_identical_fields(rough_case):
    w, phi, reg, _ = rough_case
    cfg = QuadratureConfig(n_outer=512, tol=2e-2)
    chk = stability_in_medium(w, w, phi, reg, 0.0, 1.0, cfg)
    assert chk.lhs <= 2.0 * chk.combined_error
    assert chk.term1 == 0.0
    assert chk.term2 == 0.0


def test_stability_in_medium_time_only_shift(rough_case):
    w, phi, reg, _ = rough_case
    cfg = QuadratureConfig(n_outer=512, tol=2e-2)
    shift = ProductField(np.sin, one)  # x-independent addition
    w2 = SumField(w, shift)
    chk = stability_in_medium(w, w2, phi, reg, 0.0, 1.0, cfg)
    assert abs(chk.lhs - math.sin(1.0)) <= chk.combined_error
    assert chk.term1 == pytest.approx(math.sin(1.0), abs=1e-12)
    assert chk.term2 <= 1e-9  # difference field has no rectangular component


def test_stability_in_path_identical(rough_case):
    w, phi, reg, _ = rough_case
    cfg = QuadratureConfig(n_outer=512, tol=2e-2)
    chk = stability_in_path(w, phi, phi, reg, 0.8, 0.0, 1.0, cfg)
    assert chk.lhs <= 2.0 * chk.combined_error


def test_stability_in_path_constant_shift():
    g = make_weierstrass(0.8, 10)
    w = ProductField(g, ident)
    phi = make_weierstrass(0.7, 10)
    delta = 0.35
    phi2 = lambda t: phi(t) + delta
    reg = Regularity(0.8, 1.0, 0.7)
    cfg = QuadratureConfig(n_outer=768, tol=2e-2)
    chk = stability_in_path(w, phi, phi2, reg, 0.8, 0.0, 1.0, cfg)
    exact = delta * abs(g(1.0) - g(0.0))
    assert chk.lhs == pytest.approx(exact, rel=2e-2, abs=2e-3)
    assert chk.lhs <= 2.0 * chk.term1  # consistent with lam = 1 scaling


def test_stability_in_path_requires_theta_window(rough_case):
    w, phi, reg, cfg = rough_case
    with pytest.raises(ValueError):
        stability_in_path(w, phi, phi, reg, 1.5, 0.0, 1.0, cfg)
    with pytest.raises(RegularityError):
        stability_in_path(w, phi, phi, reg, 0.3, 0.0, 1.0, cfg)  # tau+theta*lam*gamma < 1


# ---------------------------------------------------------------------------
# the grid ladder: tol picks the grid, n_outer caps it


@pytest.fixture
def ladders(monkeypatch):
    """(start, cap, levels evaluated) of every refine_levels call in fraccalc."""
    seen = []
    real = fraccalc.refine_levels

    def recording(evaluate, n, tol, order, cap=None):
        levels = []

        def counted(m):
            levels.append(m)
            return evaluate(m)

        seen.append((n, cap, levels))
        return real(counted, n, tol, order, cap)

    monkeypatch.setattr(fraccalc, "refine_levels", recording)
    return seen


LADDER_REG = Regularity(0.6, 1.0, 0.7)


def _ladder_medium(scales=12):
    g = make_weierstrass(0.6, 12, phases=np.linspace(0.0, 6.0, 12))
    return ProductField(g, ident), make_weierstrass(0.7, scales, phases=np.linspace(1.0, 5.0, scales))


@pytest.mark.parametrize(
    "phi, n_outer, start",
    [
        (_ladder_medium(14)[1], 1024, 16384),  # base**scales = 2^14 on [0, 1]
        (_ladder_medium(12)[1], 1024, 4096),
        (lambda t: np.sin(3.0 * t), 512, 16384),  # opaque: the cap
        (sample_function(np.sin, 0.0, 1.0, 2048), 1024, 4096),  # 1/spacing 2048: the floor
        (sample_function(np.sin, 0.0, 1.0, 10000), 1024, 16384),
        (ident, 1024, 4096),  # smooth
        (make_function("sin:freq=3000"), 1024, 8192),  # 2 |freq| = 6000
        (make_function("sin:freq=30000"), 1024, 65536),  # 60,000: the cap
        (_ladder_medium(14)[1], 256, 4096),  # a cap of 4096 runs one grid
    ],
    ids=["wei14", "wei12", "opaque", "sampled2048", "sampled10000", "identity", "sin3000", "sin30000", "cap4096"],
)
def test_ladder_start_grid_from_the_inputs_finest_scale(ladders, phi, n_outer, start):
    cfg = QuadratureConfig(n_outer=n_outer, tol=1.0)  # any estimate meets it: the solve stops at its start
    rep = integrate_fractional(_ladder_medium()[0], phi, LADDER_REG, 0.0, 1.0, cfg, with_bounds=False)
    assert ladders == [(start, cfg.grid_cells(), [start // 4, start // 2, start])]
    assert rep.params["grid_cells"] == start and rep.converged


def test_ladder_n_outer_96_one_grid_bitwise_as_before(ladders):
    # 576 cells, below 4096: one grid, with the bits of the single-grid route
    g, h, phi = GRID_ROUTE_SERIES
    cfg = QuadratureConfig(n_outer=96)
    pinned = {
        (0.1, 0.9): ("-0x1.a82255a754b82p-4", "0x1.15c5e1caafc77p-7"),
        (0.25, 0.2578125): ("0x1.61a1544701ff8p-9", "0x1.9fe3177da269ap-19"),
    }
    for (a, b), (value, estimate) in pinned.items():
        rep = integrate_fractional(ProductField(g, h), phi, Regularity(0.7, 0.8, 0.625), a, b, cfg, with_bounds=False)
        assert (rep.value.hex(), rep.error_estimate.hex(), rep.params["grid_cells"]) == (value, estimate, 576)
    assert ladders == [(576, 576, [144, 288, 576])] * 2


def test_ladder_each_level_once_and_never_past_the_cap(ladders):
    # the README medium never meets tol=1e-5: it climbs from 4096 to the cap
    w, phi = _ladder_medium()
    cfg = QuadratureConfig()
    rep = integrate_fractional(w, phi, LADDER_REG, 0.0, 1.0, cfg, with_bounds=False)
    f, g = _ladder_medium()[1], w.g
    young = young_integral(f, g, 0.7, 0.6, 0.0, 1.0)  # n_outer=768: 36,864 cells from 4,608
    assert [(start, cap) for start, cap, _ in ladders] == [(4096, 16384), (4608, 36864)]
    for start, cap, levels in ladders:
        assert levels == [start // 4, start // 2] + [start * 2**k for k in range(len(levels) - 2)]
        assert max(levels) <= cap
    assert rep.params["grid_cells"] == ladders[0][2][-1]
    assert rep.converged == (rep.error_estimate <= cfg.tol * max(1.0, abs(rep.value)))
    assert young.converged == (young.error_estimate <= 1e-5 * max(1.0, abs(young.value)))


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
def test_converged_is_the_stop_rule_on_every_route(ladders, tol):
    cfg = QuadratureConfig(n_nodes=1024, n_outer=512, tol=tol)
    w, phi = _ladder_medium()
    results = [
        integrate_fractional(w, phi, LADDER_REG, 0.0, 1.0, cfg, with_bounds=False),
        young_integral(phi, w.g, 0.7, 0.6, 0.0, 1.0, cfg=cfg),
        frac_integral_left(np.sin, 0.4, 0.2, 1.3, cfg),
        frac_integral_right(np.sin, 0.4, 0.2, 1.3, cfg),
        weyl_left(np.sin, 0.4, 0.2, 1.3, cfg=cfg),
        weyl_right(np.sin, 0.4, 0.2, 1.3, cfg=cfg),
    ]
    for res in results:
        assert res.converged == (res.error_estimate <= tol * max(1.0, abs(res.value)))
    for start, cap, levels in ladders:
        assert max(levels) <= (cap or start) and len(levels) == len(set(levels))


@functools.lru_cache(maxsize=1)
def _additivity_case():
    combo = pinned_combos()[3]  # wei-e03-steep, the additivity study's closest case
    w, phi = make_field(combo.field), load_path(combo.path)
    reg = Regularity(combo.tau, combo.lam, combo.gamma)
    cfg = QuadratureConfig(n_outer=1024, tol=5e-3)
    return w, phi, reg, cfg, integrate_fractional(w, phi, reg, 0.0, 1.0, cfg, with_bounds=False)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(cut=st.floats(0.02, 0.98))
def test_fractional_additivity_at_random_cuts_within_estimates(cut):
    # each piece picks its own grid, so additivity holds only within the estimates
    w, phi, reg, cfg, full = _additivity_case()
    left = integrate_fractional(w, phi, reg, 0.0, cut, cfg, with_bounds=False)
    right = integrate_fractional(w, phi, reg, cut, 1.0, cfg, with_bounds=False)
    gap = abs(full.value - left.value - right.value)
    assert gap <= full.error_estimate + left.error_estimate + right.error_estimate


@settings(derandomize=True, deadline=None, max_examples=8)
@given(
    seed=st.integers(0, 2**31 - 1),
    nt=st.sampled_from([17, 33, 65]),
    nx=st.sampled_from([9, 17]),
    samples=st.sampled_from([129, 257]),
    interval=st.sampled_from([(0.0, 1.0), (0.25, 1.5), (-1.0, 0.5)]),
)
def test_time_reversal_flips_the_sign_on_both_routes(seed, nt, nx, samples, interval):
    # t -> a + b - t maps the grid rows and the path stamps onto [a, b] again
    # (exactly, for these dyadic ends) and reverses the orientation, so the
    # two integrals cancel within c02's cross-method factor of their estimates
    rng = np.random.RandomState(seed)
    a, b = interval
    pts, ts = np.linspace(a, b, samples), np.linspace(a, b, nt)
    vals = np.cumsum(rng.randn(samples)) / np.sqrt(samples)
    margin = 0.1 * (np.ptp(vals) + 1.0)
    xs = np.linspace(vals.min() - margin, vals.max() + margin, nx)
    values = rng.randn(nt, nx)
    w, phi = GridField(ts, xs, values), SampledPath(pts, vals)
    w_rev, phi_rev = GridField(a + b - ts[::-1], xs, values[::-1]), SampledPath(a + b - pts[::-1], vals[::-1])
    reg = Regularity(0.7, 1.0, 0.6)
    fwd = integrate_fractional(w, phi, reg, a, b, with_bounds=False)
    rev = integrate_fractional(w_rev, phi_rev, reg, a, b, with_bounds=False)
    assert abs(fwd.value + rev.value) <= 5.0 * (fwd.error_estimate + rev.error_estimate)
    (fwd, _), (rev, _) = integrate_sewing(w, phi, a, b), integrate_sewing(w_rev, phi_rev, a, b)
    assert abs(fwd.value + rev.value) <= 5.0 * (fwd.error_estimate + rev.error_estimate)
