import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung.fields import Regularity
from nlyoung.quadrature import (
    GridPlan,
    QuadratureConfig,
    grid_plan,
    hat_weights,
    marchaud_conv,
    marchaud_kernel,
    refine_levels,
    richardson,
)


def test_config_validation():
    bad = [
        {"n_nodes": 4}, {"n_nodes": 4098}, {"n_outer": -5},
        {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)
    # not options: the triple budget is derived from n_outer, and no graded
    # mesh (grading, split radius, tail floor) is left
    for kwargs in ({"grading": "auto"}, {"split_radius": 1.0 / 16.0}, {"n_triple": 48}, {"tail_floor": 1e-4}):
        with pytest.raises(TypeError):
            QuadratureConfig(**kwargs)


@pytest.mark.parametrize("n_outer,cells", [(1024, 65536), (768, 36864), (512, 16384), (96, 576), (100, 624), (8, 8)])
def test_grid_cells_from_budget(n_outer, cells):
    # N = n_outer^2 / 16 rounded down to a multiple of 8, so N/4 is even
    assert QuadratureConfig(n_outer=n_outer).grid_cells() == cells


def test_refine_levels_extrapolates_second_order():
    # a synthetic order-2 sequence: v(n) = L + c/n^2
    calls = []

    def evaluate(n):
        calls.append(n)
        return 5.0 + 3.0 / n**2

    res = refine_levels(evaluate, 256, 1e-4, order=2.0)
    assert calls == [64, 128, 256]
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.converged


def test_refine_levels_small_budget_has_three_distinct_levels():
    # no level is clamped: at n = 8 the levels are 2, 4, 8 cells, so the
    # estimate sees the change and the flag says the tolerance is not met
    calls = []

    def evaluate(n):
        calls.append(n)
        return 1.0 + 1.0 / n**2

    res = refine_levels(evaluate, 8, 1e-6, order=2.0)
    assert calls == [2, 4, 8]
    assert res.error_estimate > 0.0 and not res.converged


def _hat_reference(p, k):
    """(lo_k, hi_k) by 40-point Gauss-Legendre on 8 panels of the cell;
    on cell 0 the moments of u^p are closed forms."""
    if k == 0:
        return 1.0 / (p + 1.0) - 1.0 / (p + 2.0) if p > -1.0 else 0.0, 1.0 / (p + 2.0)
    x, w = np.polynomial.legendre.leggauss(40)
    edges = k + np.arange(9) / 8.0
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x
    wu = half * w * u**p
    return float(np.sum(wu * (k + 1.0 - u))), float(np.sum(wu * (u - k)))


@pytest.mark.parametrize("p", [-1.9, -1.5, -1.15, -0.85, -0.5, -0.1, 0.3])
def test_hat_weights_match_reference(p):
    # near cells use closed forms, far cells the midpoint series
    lo, hi = hat_weights(p, 5000)
    for k in (0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 100, 1000, 4999):
        want = _hat_reference(p, k)
        np.testing.assert_allclose([lo[k], hi[k]], want, rtol=1e-13, atol=0.0)


def _hat_weights_36(p, n):
    """(lo, hi) of cells 1..n-1 by the midpoint series summed over 36 terms,
    hat_weights' sum on its near cells, in the same operations."""
    j = np.arange(36)
    binom = np.cumprod(np.concatenate([[1.0], (p - j[:-1]) / (j[:-1] + 1.0)]))
    coef = np.stack([binom[0::2] / (j[0::2] + 1.0), binom[1::2] / (2.0 * (j[1::2] + 2.0))])
    m = np.arange(1, n) + 0.5
    t2 = (0.5 / m) ** 2
    series = np.repeat(coef[:, -1:], m.size, axis=1)
    for c in coef[:, -2::-1].T:
        series *= t2
        series += c[:, None]
    mass, first = series
    scale = 0.5 * m**p
    mass *= scale
    first *= scale / m
    return mass - first, mass + first


# the fractional orders of the routes: the default alpha of the pinned media,
# the README medium and grid-data, the Young integral's gamma, and the
# single-point operators' orders of the tests and demos
ROUTE_ORDERS = sorted(
    {Regularity(*reg).alpha for reg in [(0.6, 1.0, 0.6), (0.7, 0.8, 0.625), (0.6, 1.0, 0.7), (0.75, 1.0, 0.55),
                                         (0.8, 1.0, 0.7), (0.9, 0.75, 0.8), (0.7, 1.0, 0.6)]}
    | {0.65, 0.37, 0.4, 0.3}
)


@pytest.mark.parametrize("alpha", ROUTE_ORDERS)
def test_hat_weights_far_cells_bitwise_equal_to_36_terms(alpha):
    # from cell 64 on the series stops after fewer terms; the terms left out
    # are far below the last bit, so every weight keeps its bits.  The powers
    # are the grid route's four and the single-point operators' two.
    for p in {-alpha - 1.0, alpha - 2.0, -alpha, alpha - 1.0}:
        lo, hi = hat_weights(p, 65537)
        want_lo, want_hi = _hat_weights_36(p, 65537)
        assert np.array_equal(lo[1:], want_lo) and np.array_equal(hi[1:], want_hi), p


@pytest.mark.parametrize("start", [1, 63, 64, 65, 4097])
def test_hat_weights_of_new_cells_only_bitwise(start):
    # a doubled grid computes its new cells only, with the bits of a whole grid
    for p in (-1.35, -0.35, 0.65 - 2.0):
        whole = hat_weights(p, 8193)
        part = hat_weights(p, 8193, start=start)
        assert all(np.array_equal(w[start:], q) and not q.flags.writeable for w, q in zip(whole, part))


def test_grid_plan_grown_equals_built():
    grown = GridPlan(0.45, 4096)
    grown.grow(8192)
    grown.grow(16384)
    built = GridPlan(0.45, 16384)
    assert [pair[0].size for pair in grown.weights] == [16385, 16385, 8192, 8192]
    for pair, want in zip(grown.weights, built.weights):
        assert all(np.array_equal(w, q) and not w.flags.writeable for w, q in zip(pair, want))


def test_hat_weights_reject_bad_powers():
    for p in (-1.0, -2.0, -2.5):
        with pytest.raises(ValueError):
            hat_weights(p, 16)


@pytest.mark.parametrize("n", [577, 5000])
def test_hat_weights_read_only_and_kept_for_small_grids_only(n):
    # the hat weights live in the grid's plan; small grids share one plan,
    # large ones build theirs per call, so the cache stays small
    plan = grid_plan(0.3, n)
    again = grid_plan(0.3, n)
    for (lo, hi), (lo2, hi2) in zip(plan.weights, again.weights):
        assert not lo.flags.writeable and not hi.flags.writeable
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        assert (lo2 is lo) == (n <= 4097)
    assert (again is plan) == (n <= 4097)


@pytest.mark.parametrize("cells", [576, 4096, 4104])
def test_grid_plan_parts_read_only_and_kept_for_small_grids_only(cells):
    kept = cells <= 4097
    plan = grid_plan(0.4, cells)
    kernel, ramp, outer = plan.kernel(cells, 0), plan.ramp(cells, 0), plan.outer(cells)
    # a kept plan's kernels hold their spectrum and partial sums; a large
    # grid's leave them to marchaud_conv, which frees each after use
    assert (kernel.spectrum is not None) == kept and (kernel.total is not None) == kept
    parts = [*kernel, *plan.kernel(cells // 4, 1), ramp, plan.ramp(cells // 2, 1), *outer]
    assert not any(arr.flags.writeable for arr in parts if arr is not None)
    assert (plan.kernel(cells, 0) is kernel) == kept
    assert (plan.ramp(cells, 0) is ramp) == kept
    assert (plan.outer(cells) is outer) == kept
    assert (grid_plan(0.4, cells) is plan) == kept
    # one plan is kept: another order replaces it
    assert grid_plan(0.6, cells) is not plan


def test_marchaud_conv_reused_buffers_bitwise():
    # one solve's levels share out and work: the bits are those of fresh arrays
    lo, hi = hat_weights(-1.45, 1025)
    out, work = np.empty(3 * 1025), np.empty(8 * 1025)
    for n in (256, 512, 1024):
        rows = np.random.default_rng(n).normal(size=(3, n + 1))
        for keep in (False, True):
            kernel = marchaud_kernel(lo, hi, n, keep)
            got = marchaud_conv(rows, kernel, out[: rows.size].reshape(rows.shape), work)
            assert np.array_equal(got, marchaud_conv(rows, kernel))


@pytest.mark.parametrize("p", [-1.8, -1.5, -1.2])
@pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
def test_marchaud_conv_matches_direct_sum(p, n):
    # the O(n^2) sum over cells: v_j - v(j-u) is linear on each cell
    lo, hi = hat_weights(p, n + 1)
    v = np.random.default_rng(n).normal(size=n + 1)
    want = [
        sum((v[j] - v[j - k]) * lo[k] + (v[j] - v[j - k - 1]) * hi[k] for k in range(j))
        for j in range(n + 1)
    ]
    np.testing.assert_allclose(marchaud_conv(v, marchaud_kernel(lo, hi, n)), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 576])
def test_marchaud_conv_rows_equal_one_dimensional_calls(n):
    # a stack of rows runs each row as its own call would, bit for bit
    weights = hat_weights(-1.4, n + 1)
    rows = np.random.default_rng(n).normal(size=(3, n + 1))
    got = marchaud_conv(rows[:, ::-1], marchaud_kernel(*weights, n))
    # and a kernel holding its spectrum and partial sums gives the same bits
    assert np.array_equal(got, marchaud_conv(rows[:, ::-1], marchaud_kernel(*weights, n, keep=True)))
    for k in range(3):
        assert np.array_equal(got[k], marchaud_conv(rows[k, ::-1].copy(), marchaud_kernel(*weights, n)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    alpha=st.floats(0.05, 0.95),
    left=st.booleans(),
    n=st.integers(1, 300),
    c0=st.floats(-5.0, 5.0),
    c1=st.floats(-2.0, 2.0),
)
def test_marchaud_conv_linear_data_exact(alpha, left, n, c0, c1):
    # v_j = c0 + c1 j: int_0^j c1 u^(p+1) du = c1 j^(p+2) / (p+2) at every node
    p = -alpha - 1.0 if left else alpha - 2.0
    j = np.arange(n + 1.0)
    got = marchaud_conv(c0 + c1 * j, marchaud_kernel(*hat_weights(p, n + 1), n))
    want = c1 * j ** (p + 2.0) / (p + 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11 * (abs(c0) + abs(c1)))


def test_grid_plan_outer_weights_beta_integral():
    # int_0^n u^(-1/3) (n-u)^(-2/3) du = B(2/3, 1/3), whatever n
    n = 4096
    got = grid_plan(1.0 / 3.0, n).outer_sum(np.ones(n + 1))
    beta = math.gamma(2.0 / 3.0) * math.gamma(1.0 / 3.0)
    assert got == pytest.approx(beta, rel=1e-5)


def test_richardson_known_and_fitted_order():
    # levels L - c 2^(-p k) for k = 0, 1, 2: both rules recover L at order p
    for p in (0.5, 1.0, 2.0):
        coarse, mid, fine = (1.0 - 0.3 * 2.0 ** (-p * k) for k in range(3))
        for order in (p, None):
            value, err = richardson(coarse, mid, fine, order)
            assert value == pytest.approx(1.0, abs=1e-15)
            assert err == pytest.approx(0.3 * 2.0 ** (-2 * p), rel=1e-12)
    # entrywise on arrays, with the order fitted on the last entries
    ks = np.arange(3)[:, None]
    levels = np.array([0.0, 1.0, 2.0]) - np.array([0.1, 0.2, 0.4]) * 2.0 ** (-ks)
    values, errs = richardson(*levels)
    np.testing.assert_allclose(values, [0.0, 1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(errs, [0.025, 0.05, 0.1], rtol=1e-12)


@pytest.mark.parametrize("levels", [
    (0.0, 1.0, 2.0),      # order 0: the differences do not shrink
    (0.0, 1.0, 1.0 / 32.0 + 1.0),  # order 5, above the clamp
    (1.0, 1.0, 1.5),      # no coarse difference to fit on
    (0.0, 1.0, 1.0),      # no fine difference
    (0.0, math.inf, 1.0),
])
def test_richardson_without_a_fitted_order_keeps_the_finest(levels):
    coarse, mid, fine = levels
    value, err = richardson(coarse, mid, fine)
    assert value == fine
    assert err == abs(fine - mid)


def test_refine_levels_fixed_order():
    # v(n) = L + c n^(-q): extrapolation at the known order q is exact
    q = 1.35
    res = refine_levels(lambda n: 2.0 + 7.0 / n**q, 4096, 1e-6, order=q)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate == pytest.approx(2.0 * (res.levels[2] - 2.0), rel=1e-9)
    assert type(res.converged) is bool


def _levels(v):
    calls = []

    def evaluate(n):
        calls.append(n)
        return v(n)

    return calls, evaluate


def test_refine_levels_ladder_doubles_until_tol():
    # v(n) = 1 + 50/n^2: the estimate falls 4x a rung and meets 1e-4 at 1024 cells
    calls, evaluate = _levels(lambda n: 1.0 + 50.0 / n**2)
    res = refine_levels(evaluate, 64, 1e-4, order=2.0, cap=4096)
    assert calls == [16, 32, 64, 128, 256, 512, 1024]  # each level once
    assert res.cells == 1024 and res.levels == tuple(1.0 + 50.0 / n**2 for n in calls)
    assert res.converged and res.error_estimate <= 1e-4
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_refine_levels_ladder_stops_at_cap():
    calls, evaluate = _levels(lambda n: 1.0 + 50.0 / n**2)
    res = refine_levels(evaluate, 64, 1e-9, order=2.0, cap=4096)
    assert calls[-1] == res.cells == 4096 and len(calls) == len(set(calls)) == 9
    assert not res.converged and res.error_estimate > 1e-9
    # a cap that is not the start times a power of two is never passed
    calls, evaluate = _levels(lambda n: 1.0 + 50.0 / n**2)
    assert refine_levels(evaluate, 64, 1e-9, order=2.0, cap=1000).cells == calls[-1] == 512


@settings(derandomize=True, deadline=None, max_examples=40)
@given(c=st.floats(-1e3, 1e3), q=st.floats(0.5, 2.5), tol=st.floats(1e-9, 1e-1), k=st.integers(0, 4))
def test_refine_levels_converged_is_the_stop_rule(c, q, tol, k):
    calls, evaluate = _levels(lambda n: 0.3 + c / n**q)
    res = refine_levels(evaluate, 32, tol, order=q, cap=32 * 2**k)
    assert res.converged == (res.error_estimate <= tol * max(1.0, abs(res.value)))
    assert max(calls) == res.cells <= 32 * 2**k and len(calls) == len(set(calls))
    # it stops at the first rung that meets tol, or at the cap
    assert res.converged or res.cells == 32 * 2**k
