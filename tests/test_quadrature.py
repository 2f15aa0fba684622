import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung.quadrature import (
    QuadratureConfig,
    power_cells,
    refine_levels,
    singular_cells,
    singular_sum,
    two_sided_cells,
)


def test_config_validation():
    bad = [
        {"n_nodes": 4}, {"n_outer": -5}, {"n_triple": 0}, {"split_radius": 0.0},
        {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
        {"grading": 0.5}, {"grading": math.nan}, {"grading": math.inf},
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            QuadratureConfig(**kwargs)
    cfg = QuadratureConfig()
    assert cfg.scaled(0.5).n_nodes == cfg.n_nodes // 2


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
    w, t, da, db = two_sided_cells(0.0, 1.0, -0.5, -1.0 / 3.0, 512, 1e-12)
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
