import math

import numpy as np
import pytest

from nlyoung.fields import ProductField, RegularityError
from nlyoung.iterated import (
    DiagonalField,
    GrowthParams,
    JointField,
    diagonal_integral,
    growth_check,
    iterated_integral,
)
from nlyoung.paths import make_function, make_weierstrass, sample_function

ident = make_function("identity")
one = make_function("const:c=1")


def joint_of(fn, tau=1.0, lam=1.0):
    return JointField(ProductField(fn, one), tau, lam)


# ---------------------------------------------------------------------------
# diagonal integrals


def test_diagonal_time_only_telescopes():
    res = diagonal_integral(joint_of(np.sin), one, 0.0, 1.0)
    assert res.value == pytest.approx(math.sin(1.0), abs=1e-6)


def test_diagonal_linear_density():
    # F(s,t) = s, rho(t) = t: int t dt = 1/2
    res = diagonal_integral(joint_of(ident), ident, 0.0, 1.0)
    assert res.value == pytest.approx(0.5, abs=1e-5)


def test_diagonal_with_spatial_dependence():
    # F(s,t) = sin(s) * t, rho = 1: int t d(sin t) = cos 1 + sin 1 - 1
    joint = JointField(ProductField(np.sin, ident), 1.0, 1.0)
    exact = math.cos(1.0) + math.sin(1.0) - 1.0
    res = diagonal_integral(joint, one, 0.0, 1.0)
    assert res.value == pytest.approx(exact, abs=1e-5)
    res_sew = diagonal_integral(joint, one, 0.0, 1.0, method="sewing")
    assert res_sew.value == pytest.approx(exact, abs=1e-8)


def test_diagonal_requires_supercritical():
    with pytest.raises(RegularityError):
        diagonal_integral(joint_of(np.sin, tau=0.4, lam=0.5), one, 0.0, 1.0)


def test_diagonal_field_increment_split():
    # the two-term split must agree with direct evaluation differences
    base = ProductField(make_weierstrass(0.8, 8), make_weierstrass(0.9, 8))
    rho = sample_function(np.cos, 0.0, 1.0, 256)
    g = DiagonalField(base, rho)
    rng = np.random.RandomState(4)
    s, t, x, y = rng.rand(4, 200)
    direct = g.eval(s, x) - g.eval(t, x) - g.eval(s, y) + g.eval(t, y)
    np.testing.assert_allclose(g.increment_rect(s, t, x, y), direct, atol=1e-10)
    direct_t = g.eval(t, x) - g.eval(s, x)
    np.testing.assert_allclose(g.increment_t(s, t, x), direct_t, atol=1e-12)


# ---------------------------------------------------------------------------
# iterated integrals


@pytest.mark.parametrize("n", range(1, 6))
def test_factorial_identity_linear(n):
    res = iterated_integral([joint_of(ident)] * n, one, 0.0, 1.0,
                            n_points=2049, fine_level=15)
    exact = 1.0 / math.factorial(n)
    assert abs(res.value - exact) <= 1e-5 * exact + 1e-9


@pytest.mark.parametrize("n", [1, 3, 5])
def test_factorial_identity_sine(n):
    res = iterated_integral([joint_of(np.sin)] * n, one, 0.0, 1.0,
                            n_points=2049, fine_level=15)
    exact = math.sin(1.0) ** n / math.factorial(n)
    assert abs(res.value - exact) <= 1e-5 * exact + 1e-9


def test_factorial_identity_weierstrass():
    f = make_weierstrass(0.8, 10)
    res = iterated_integral([joint_of(f, tau=0.8)] * 3, one, 0.0, 1.0,
                            n_points=2049, fine_level=15)
    delta = float(f(1.0) - f(0.0))
    exact = delta**3 / 6.0
    assert abs(res.value - exact) <= 1e-5 * abs(exact) + 1e-9


def test_single_stage_matches_diagonal_integral():
    res = iterated_integral([joint_of(np.sin)], ident, 0.0, 1.0)
    diag = diagonal_integral(joint_of(np.sin), ident, 0.0, 1.0, method="sewing")
    assert res.value == pytest.approx(diag.value, abs=1e-8)


def test_fractional_final_stage():
    res = iterated_integral([joint_of(ident)] * 3, one, 0.0, 1.0,
                            n_points=2049, fine_level=15, method="fractional")
    assert res.value == pytest.approx(1.0 / 6.0, rel=1e-4)


def test_stage_paths_and_exponents():
    res = iterated_integral([joint_of(ident)] * 2, one, 0.0, 1.0)
    assert len(res.stage_paths) == 2
    np.testing.assert_allclose(res.stage_paths[0].values, res.stage_paths[0].ts, atol=1e-9)
    # smooth stages regress near exponent 1
    assert res.stage_exponents[1] == pytest.approx(1.0, abs=0.15)


def test_stage_regularity_of_rough_media():
    # stage paths inherit the media's time order: slopes >= tau - 0.15
    f = make_weierstrass(0.8, 10)
    joint = JointField(ProductField(f, one), 0.8, 1.0)
    res = iterated_integral([joint] * 2, one, 0.0, 1.0)
    for e in res.stage_exponents:
        assert e >= 0.8 - 0.15


def test_permutation_sensitivity():
    f1 = joint_of(ident)                                  # F1(s,t) = s
    f2 = JointField(ProductField(ident, ident), 1.0, 1.0)  # F2(s,t) = s*t
    v12 = iterated_integral([f1, f2], one, 0.0, 1.0).value
    v21 = iterated_integral([f2, f1], one, 0.0, 1.0).value
    assert v12 == pytest.approx(1.0 / 3.0, abs=1e-5)
    assert v21 == pytest.approx(1.0 / 6.0, abs=1e-5)
    assert abs(v12 - v21) > 1e-2


def test_spatial_variant_differs_from_diagonal():
    # for a medium that ignores its spatial slot the spatial recursion
    # telescopes to f(b) - f(a) at every order
    res = iterated_integral([joint_of(ident)] * 2, one, 0.0, 1.0, variant="spatial")
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_stage_regularity_guard():
    rough = JointField(ProductField(make_weierstrass(0.35, 12), ident), 0.35, 1.0)
    with pytest.raises(RegularityError):
        # stage-1 path is ~0.35-Holder; the next medium then fails tau + lam_eff > 1
        iterated_integral([rough, rough], one, 0.0, 1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        iterated_integral([], one, 0.0, 1.0)
    with pytest.raises(ValueError):
        iterated_integral([joint_of(ident)], one, 0.0, 1.0, n_points=100)
    with pytest.raises(ValueError):
        iterated_integral([joint_of(ident)], one, 0.0, 1.0, variant="mixed")


# ---------------------------------------------------------------------------
# growth exponents


def test_growth_params_closed_form_and_recursion():
    gp = GrowthParams(0.7, 0.8)
    assert gp.beta == pytest.approx(0.5 / 0.8)
    assert gp.ell(1) == pytest.approx(1.5)
    for n in range(1, 6):
        assert gp.ell(n + 1) == pytest.approx(1.0 + gp.beta * gp.ell(n), rel=1e-12)
    flat = GrowthParams(1.0, 0.9)  # beta = 1 limit
    assert flat.ell(3) == pytest.approx(2.0 + 1.9)
    increasing = GrowthParams(0.9, 0.6)  # beta > 1
    assert increasing.ell(3) > increasing.ell(2) > increasing.ell(1)
    with pytest.raises(RegularityError):
        GrowthParams(0.4, 0.5)


def test_growth_check_linear_case():
    # |I| = h^2/2 against gamma = 1.9: ratios scale like h^0.1
    scales = [2.0**-j for j in range(0, 7)]
    res = growth_check([joint_of(ident)], ident, 0.0, scales, 1.9)
    assert res.slope == pytest.approx(0.1, abs=1e-3)
    assert res.slope >= -0.1


def test_growth_check_two_stages_bounded():
    gp = GrowthParams(1.0, 1.0)
    scales = [2.0**-j for j in range(0, 7)]
    res = growth_check([joint_of(ident)] * 2, ident, 0.0, scales, gp.target(2))
    assert res.slope >= -0.1


def test_growth_check_zero_density():
    zero = make_function("const:c=0")
    scales = [0.5, 0.25, 0.125]
    res = growth_check([joint_of(np.sin)], zero, 0.0, scales, 1.5)
    assert np.all(np.abs(res.values) <= 1e-12)
    assert res.slope == 0.0


def test_growth_check_requires_pinned_density():
    with pytest.raises(ValueError):
        growth_check([joint_of(ident)], one, 0.0, [0.5, 0.25], 1.5)
