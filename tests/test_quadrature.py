import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung.quadrature import (
    QuadratureConfig,
    hat_weights,
    marchaud_conv,
    power_cells,
    refine_levels,
    singular_cells,
    singular_sum,
    two_sided_cells,
    two_sided_grid_sum,
)


def test_config_validation():
    bad = [
        {"n_nodes": 4}, {"n_outer": -5}, {"tail_floor": 0.0}, {"tail_floor": 1.0},
        {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)
    # not options: the mesh grading is fixed, the split radius a constant and
    # the triple budget derived from n_outer
    for kwargs in ({"grading": "auto"}, {"split_radius": 1.0 / 16.0}, {"n_triple": 48}):
        with pytest.raises(TypeError):
            QuadratureConfig(**kwargs)


@pytest.mark.parametrize("n_outer,cells", [(1024, 65536), (768, 36864), (512, 16384), (96, 576), (100, 624), (8, 8)])
def test_grid_cells_from_budget(n_outer, cells):
    # N = n_outer^2 / 16 rounded down to a multiple of 8, so N/4 is even
    assert QuadratureConfig(n_outer=n_outer).grid_cells() == cells


def test_power_cells_closed_forms():
    edges = np.array([0.0, 0.25, 1.0])
    mass, cent = power_cells(edges, -0.5)
    # int u^-1/2 over [0, .25] = 1, over [.25, 1] = 1
    np.testing.assert_allclose(mass, [1.0, 1.0], atol=1e-14)
    # centroid of u^-1/2 on [0, 1/4]: (int u^1/2)/(int u^-1/2) = (1/12)/1
    assert cent[0] == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert np.all((cent >= edges[:-1]) & (cent <= edges[1:]))


def test_singular_cells_integrate_powers_exactly():
    # weight kernels carry their own mass, so G = 1 integrates exactly
    for p in (-0.5, -0.2, 0.0, 0.7):
        mass, cent = singular_cells(1.0, p, 64, 1e-12)
        assert np.sum(mass) == pytest.approx(1.0 / (p + 1.0), rel=1e-12)


def test_singular_cells_affine_exactness():
    # the centroid rule integrates u^p * (a + b u) exactly, cell by cell
    p = -0.5
    mass, cent = singular_cells(1.0, p, 32, 1e-12)
    val = float(mass @ (2.0 + 3.0 * cent))
    exact = 2.0 / (p + 1.0) + 3.0 / (p + 2.0)
    assert val == pytest.approx(exact, rel=1e-12)


def test_difference_kernel_cells_cover_above_floor():
    mass, cent = singular_cells(1.0, -1.5, 64, 1e-10)
    assert cent[0] >= 1e-10
    # total mass of u^-1.5 over [floor, 1] = 2 (floor^-1/2 - 1)
    exact = 2.0 * (1e-10**-0.5 - 1.0)
    assert np.sum(mass) == pytest.approx(exact, rel=1e-10)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    alpha=st.floats(0.05, 0.95),
    marchaud=st.booleans(),
    shape=st.sampled_from([(), (5,), (4, 3)]),
    split=st.sampled_from([1.0, 1.0 / 16.0]),
    seed=st.integers(0, 2**16),
)
def test_singular_sum_linear_difference_exact(alpha, marchaud, shape, split, seed):
    # D(u) = c u on [0, L]: int_0^L c u^(p+1) du = c L^(p+2) / (p+2), the part
    # below the floor included, for scalar, vector and broadcast 3-D diffs
    p = -alpha - 1.0 if marchaud else alpha - 2.0
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0, shape)
    length = rng.uniform(1e-3, 10.0, shape[:1] + (1,) * max(len(shape) - 1, 0))
    mass, cent = singular_cells(1.0, p, 64, 1e-12, far_grading=2.0, split=split)
    diff = (c * length)[..., None] * cent
    got = singular_sum(diff, length, mass, cent, 1e-12, p)
    want = c * length ** (p + 2.0) / (p + 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_singular_sum_rejects_divergent_tail():
    mass, cent = singular_cells(1.0, -1.5, 16, 1e-12)
    for p in (-2.0, -2.5):
        with pytest.raises(ValueError):
            singular_sum(cent, 1.0, mass, cent, 1e-12, p)


def test_two_sided_cells_beta_integral():
    # int_0^1 t^(-1/2) (1-t)^(-1/3) dt = B(1/2, 2/3)
    w, t, da, db = two_sided_cells(0.0, 1.0, -0.5, -1.0 / 3.0, 512)
    beta = math.gamma(0.5) * math.gamma(2.0 / 3.0) / math.gamma(0.5 + 2.0 / 3.0)
    assert float(np.sum(w)) == pytest.approx(beta, rel=1e-5)
    np.testing.assert_allclose(da + db, 1.0, atol=1e-12)


def test_refine_levels_extrapolates_second_order():
    # a synthetic order-2 sequence: v(n) = L + c/n^2
    calls = []

    def evaluate(n):
        calls.append(n)
        return 5.0 + 3.0 / n**2

    res = refine_levels(evaluate, 256, 1e-4)
    assert calls == [64, 128, 256]
    assert res.value == pytest.approx(5.0, abs=1e-9)
    assert res.converged


def test_refine_levels_fallback_on_unstable_order():
    # growing level differences: no extrapolation, last value kept
    values = iter([1.0, 1.1, 1.3])

    def evaluate(n):
        return next(values)

    res = refine_levels(evaluate, 64, 1e-6)
    assert res.value == pytest.approx(1.3)
    assert res.error_estimate == pytest.approx(0.3)
    assert not res.converged


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


def test_hat_weights_reject_bad_powers():
    for p in (-1.0, -2.0, -2.5):
        with pytest.raises(ValueError):
            hat_weights(p, 16)


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
    np.testing.assert_allclose(marchaud_conv(v, lo, hi), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 576])
def test_marchaud_conv_rows_equal_one_dimensional_calls(n):
    # a stack of rows runs each row as its own call would, bit for bit
    lo, hi = hat_weights(-1.4, n + 1)
    rows = np.random.default_rng(n).normal(size=(3, n + 1))
    got = marchaud_conv(rows[:, ::-1], lo, hi)
    for k in range(3):
        assert np.array_equal(got[k], marchaud_conv(rows[k, ::-1].copy(), lo, hi))


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
    got = marchaud_conv(c0 + c1 * j, *hat_weights(p, n + 1))
    want = c1 * j ** (p + 2.0) / (p + 2.0)
    np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11 * (abs(c0) + abs(c1)))


def test_two_sided_grid_sum_beta_integral():
    # int_0^n u^(-1/2) (n-u)^(-1/3) du = n^(1/6) B(1/2, 2/3)
    n = 4096
    got = two_sided_grid_sum(np.ones(n + 1), -0.5, -1.0 / 3.0, hat_weights(-0.5, n // 2), hat_weights(-1.0 / 3.0, n // 2))
    beta = math.gamma(0.5) * math.gamma(2.0 / 3.0) / math.gamma(0.5 + 2.0 / 3.0)
    assert got == pytest.approx(n ** (1.0 / 6.0) * beta, rel=1e-5)


def test_refine_levels_fixed_order():
    # v(n) = L + c n^(-q): extrapolation at the known order q is exact
    q = 1.35
    res = refine_levels(lambda n: 2.0 + 7.0 / n**q, 4096, 1e-6, order=q)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate == pytest.approx(2.0 * (res.levels[2] - 2.0), rel=1e-9)
    assert type(res.converged) is bool
