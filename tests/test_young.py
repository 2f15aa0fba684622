import math

import numpy as np
import pytest

from nlyoung.fields import RegularityError
from nlyoung.paths import make_weierstrass
from nlyoung.quadrature import QuadratureConfig
from nlyoung.young import young_integral


def rs_richardson(f, g, a, b, levels=(12, 13, 14)):
    """Independent oracle: left-endpoint Riemann-Stieltjes sums on dyadic
    partitions, Richardson-extrapolated at the observed order."""
    sums = []
    for k in levels:
        ts = np.linspace(a, b, 2**k + 1)
        sums.append(float(np.asarray(f(ts[:-1])) @ (np.asarray(g(ts[1:])) - np.asarray(g(ts[:-1])))))
    d1, d2 = sums[1] - sums[0], sums[2] - sums[1]
    if d1 != 0 and d2 != 0 and 0.05 < math.log2(abs(d1) / abs(d2)) < 4:
        p = math.log2(abs(d1) / abs(d2))
        return sums[2] + d2 / (2**p - 1)
    return sums[2]


def test_young_constant_against_linear():
    f = lambda t: np.ones_like(np.asarray(t, dtype=float))
    res = young_integral(f, lambda t: t, 1.0, 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_young_cubic_against_square():
    res = young_integral(lambda t: t**3, lambda t: t**2, 1.0, 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(0.4, abs=1e-5)
    assert res.gamma_used == pytest.approx(0.5)
    assert res.bound_ratio >= 0.0


def test_young_square_against_sine():
    res = young_integral(lambda t: t**2, np.sin, 1.0, 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(2.0 * math.cos(1.0) - math.sin(1.0), abs=1e-5)


def test_young_requires_supercritical_exponents():
    with pytest.raises(RegularityError):
        young_integral(np.sin, np.cos, 0.4, 0.5, 0.0, 1.0)
    with pytest.raises(RegularityError):
        young_integral(np.sin, np.cos, 0.9, 0.9, 0.0, 1.0, gamma=0.95)


def _gamma_spread(f, g, alpha_f, beta_g, a, b, gammas):
    """Max pairwise spread of young_integral across fractional orders."""
    values = [young_integral(f, g, alpha_f, beta_g, a, b, gam).value for gam in gammas]
    return max(values) - min(values)


def test_gamma_independence_smooth():
    spread = _gamma_spread(lambda t: t**3, lambda t: t**2, 1.0, 1.0, 0.0, 1.0, [0.35, 0.5, 0.65])
    assert spread <= 1e-5


def test_gamma_independence_constant_integrand():
    f = lambda t: np.ones_like(np.asarray(t, dtype=float))
    spread = _gamma_spread(f, lambda t: t, 1.0, 1.0, 0.0, 1.0, [0.3, 0.5, 0.7])
    assert spread <= 1e-8


def test_gamma_independence_weierstrass_vs_rs_oracle():
    f = make_weierstrass(0.8, 10)
    g = make_weierstrass(0.8, 10, phases=[0.4] * 10)
    oracle = rs_richardson(f, g, 0.0, 1.0, levels=(14, 15, 16))
    values = []
    for gam in (0.25, 0.4, 0.55):
        res = young_integral(f, g, 0.8, 0.8, 0.0, 1.0, gam)
        values.append(res.value)
        assert res.value == pytest.approx(oracle, abs=5e-3 * max(1.0, abs(oracle)))
    assert max(values) - min(values) <= 1e-2 * max(1.0, abs(oracle))


def test_bilinearity():
    f1 = lambda t: np.sin(2 * t)
    f2 = lambda t: t**2
    g = lambda t: np.cos(t)
    a_coef, b_coef = 2.5, -1.25
    combo = lambda t: a_coef * f1(t) + b_coef * f2(t)
    v = young_integral(combo, g, 1.0, 1.0, 0.0, 1.0).value
    v1 = young_integral(f1, g, 1.0, 1.0, 0.0, 1.0).value
    v2 = young_integral(f2, g, 1.0, 1.0, 0.0, 1.0).value
    assert v == pytest.approx(a_coef * v1 + b_coef * v2, rel=1e-10, abs=1e-10)


def test_additivity_in_interval():
    rng = np.random.RandomState(2)
    f, g = np.sin, np.cos
    full = young_integral(f, g, 1.0, 1.0, 0.0, 1.0)
    for c in rng.uniform(0.2, 0.8, size=3):
        left = young_integral(f, g, 1.0, 1.0, 0.0, float(c))
        right = young_integral(f, g, 1.0, 1.0, float(c), 1.0)
        gap = abs(full.value - left.value - right.value)
        assert gap <= full.error_estimate + left.error_estimate + right.error_estimate + 1e-9


def test_against_riemann_stieltjes_sums():
    f = make_weierstrass(0.75, 10)
    g = make_weierstrass(0.75, 10, phases=[1.1] * 10)
    res = young_integral(f, g, 0.75, 0.75, 0.0, 1.0)
    oracle = rs_richardson(f, g, 0.0, 1.0, levels=(14, 15, 16))
    assert abs(res.value - oracle) <= 5.0 * max(res.error_estimate, 1e-4)


def test_bound_ratio_uniform_over_shrinking_intervals():
    # est.fdg: a single constant dominates the ratios across scales
    pairs = [
        (make_weierstrass(0.8, 10), make_weierstrass(0.8, 10, phases=[0.4] * 10)),
        (make_weierstrass(0.9, 10, phases=[0.8] * 10), make_weierstrass(0.7, 10)),
    ]
    cfg = QuadratureConfig(n_outer=384)
    ratios = []
    for f, g in pairs:
        af = 0.8 if f.H >= 0.8 else f.H
        bg = g.H
        for j in range(0, 9):
            width = 2.0**-j
            res = young_integral(f, g, f.H, g.H, 0.0, width, cfg=cfg)
            ratios.append(res.bound_ratio)
    assert len(ratios) >= 18
    assert max(ratios) <= 5.0  # uniform cap, fitted at build time with headroom
