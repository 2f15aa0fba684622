import math
from math import gamma

import numpy as np
import pytest

from nlyoung.fraccalc import (
    dl_dr_integral,
    frac_integral_left,
    frac_integral_right,
    riemann_stieltjes_midpoint,
    smooth_parts_identity_check,
    weyl_left,
    weyl_right,
)
from nlyoung.quadrature import QuadratureConfig

CFG = QuadratureConfig()


# ---------------------------------------------------------------------------
# fractional integrals


def test_left_integral_of_one():
    r = frac_integral_left(lambda s: np.ones_like(s), 0.5, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)


def test_left_integral_beta_oracle():
    # I^alpha[s](t) = t^(1+alpha) B(alpha, 2) / Gamma(alpha) = t^(1+alpha)/Gamma(2+alpha)
    r = frac_integral_left(lambda s: s, 0.5, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0 / gamma(2.5), abs=1e-8)


def test_right_integral_mirror():
    r = frac_integral_right(lambda s: 1.0 - s, 0.5, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0 / gamma(2.5), abs=1e-8)
    r = frac_integral_right(lambda s: np.ones_like(s), 0.5, 0.0, 1.0, CFG)
    assert r.value == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-8)


def test_linearity():
    rng = np.random.RandomState(5)
    coeffs = rng.rand(8)
    w = lambda s: np.cos(3.0 * s) + 0.5 * s**2
    base = frac_integral_left(w, 0.3, 0.0, 1.0, CFG).value
    for c in coeffs:
        scaled = frac_integral_left(lambda s: c * w(s), 0.3, 0.0, 1.0, CFG).value
        assert scaled == pytest.approx(c * base, rel=1e-13)


@pytest.mark.parametrize(
    "op,rel",
    [
        (lambda f: frac_integral_left(f, 0.35, 0.0, 1.0, CFG), 1e-12),
        (lambda f: frac_integral_right(f, 0.35, 0.0, 1.0, CFG), 1e-12),
        # derivative kernels amplify float evaluation noise by ~floor^(-alpha),
        # so their linearity floor sits a couple of digits above roundoff
        (lambda f: weyl_left(f, 0.35, 0.0, 1.0, 1.0, CFG), 1e-10),
        (lambda f: weyl_right(f, 0.35, 0.0, 1.0, 1.0, CFG), 1e-10),
    ],
    ids=["ileft", "iright", "dleft", "dright"],
)
def test_all_operators_linear(op, rel):
    f1 = lambda s: np.sin(2.0 * s)
    f2 = lambda s: np.asarray(s, dtype=float) ** 2
    a_c, b_c = 1.75, -0.6
    combo = lambda s: a_c * f1(s) + b_c * f2(s)
    lhs = op(combo).value
    rhs = a_c * op(f1).value + b_c * op(f2).value
    assert lhs == pytest.approx(rhs, rel=rel, abs=rel)


@pytest.mark.parametrize("case", range(50))
def test_reflection_duality(case):
    rng = np.random.RandomState(case)
    alpha = float(rng.uniform(0.15, 0.85))
    a, width = float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0))
    b = a + width
    t = float(rng.uniform(a + 0.05 * width, b - 0.05 * width))
    c0, c1 = rng.randn(2)
    f = lambda s: c0 * np.cos(2.0 * s) + c1 * s
    f_reflected = lambda s: f(a + b - s)
    right = frac_integral_right(f, alpha, t, b, CFG).value
    left = frac_integral_left(f_reflected, alpha, a, a + b - t, CFG).value
    assert right == pytest.approx(left, rel=1e-10, abs=1e-12)
    # the Weyl pair: f_reflected rounds its argument, and the difference
    # kernel amplifies that noise by ~floor^(-alpha) (up to 1e-6 at alpha=0.85)
    noise = np.finfo(float).eps * (2.0 * abs(c0) + abs(c1)) * max(abs(a), abs(b), 1.0)
    noise *= CFG.tail_floor**-alpha
    right = weyl_right(f, alpha, t, b, 1.0, CFG)
    left = weyl_left(f_reflected, alpha, a, a + b - t, 1.0, CFG)
    assert right.value == pytest.approx(left.value, rel=1e-10, abs=1e-12 + 16.0 * noise)
    # the error estimates carry that rounding floor
    assert abs(right.value - left.value) <= right.error_estimate + left.error_estimate


def test_domain_errors():
    with pytest.raises(ValueError):
        frac_integral_left(np.sin, 0.5, 1.0, 0.5, CFG)
    with pytest.raises(ValueError):
        frac_integral_left(np.sin, 1.5, 0.0, 1.0, CFG)
    with pytest.raises(ValueError):
        weyl_left(np.sin, 0.5, 0.0, 1.0, holder_mu=0.4, cfg=CFG)


# ---------------------------------------------------------------------------
# Weyl derivatives


def test_weyl_constant():
    f = lambda s: np.ones_like(np.asarray(s, dtype=float))
    r = weyl_left(f, 0.5, 0.0, 1.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0 / gamma(0.5), abs=1e-8)
    r = weyl_right(f, 0.5, 0.0, 1.0, 1.0, CFG)
    assert r.value == pytest.approx(1.0 / gamma(0.5), abs=1e-8)


def test_weyl_linear():
    r = weyl_left(lambda s: s, 0.5, 0.0, 1.0, 1.0, CFG)
    assert r.value == pytest.approx(gamma(2.0) / gamma(1.5), abs=1e-6)


@pytest.mark.parametrize("mu", [0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.6])
@pytest.mark.parametrize("span", [0.25, 1.0])
def test_weyl_power_law_table(mu, alpha, span):
    if mu <= alpha:
        pytest.skip("needs mu > alpha")
    f = lambda s: np.asarray(s, dtype=float) ** mu
    r = weyl_left(f, alpha, 0.0, span, mu, CFG)
    exact = gamma(mu + 1.0) / gamma(mu + 1.0 - alpha) * span ** (mu - alpha)
    assert r.value == pytest.approx(exact, rel=1e-4)


def test_weyl_right_power_mirror():
    # f(s) = (b - s)^mu reflected power law
    mu, alpha = 0.5, 0.3
    f = lambda s: (1.0 - np.asarray(s, dtype=float)) ** mu
    r = weyl_right(f, alpha, 0.0, 1.0, mu, CFG)
    exact = gamma(mu + 1.0) / gamma(mu + 1.0 - alpha)
    assert r.value == pytest.approx(exact, rel=1e-4)


def test_weyl_inverts_fractional_integral():
    inner_cfg = QuadratureConfig(n_nodes=512)
    outer_cfg = QuadratureConfig(n_nodes=1024, tail_floor=1e-4)

    def int_half(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return np.array(
            [
                frac_integral_left(np.cos, 0.5, 0.0, float(v), inner_cfg).value
                if v > 0
                else 0.0
                for v in s
            ]
        )

    r = weyl_left(int_half, 0.5, 0.0, 1.0, holder_mu=1.0, cfg=outer_cfg)
    assert r.value == pytest.approx(math.cos(1.0), rel=1e-4)


def test_grading_convergence_improves_with_nodes():
    # relative error of a rough-target case drops by >= 1.5x per node doubling
    # until it hits the accuracy floor
    f = lambda s: np.asarray(s, dtype=float) ** 0.6
    exact = gamma(1.6) / gamma(1.2)
    errs = []
    for n in (64, 128, 256, 512):
        cfg = QuadratureConfig(n_nodes=n)
        errs.append(abs(weyl_left(f, 0.4, 0.0, 1.0, 0.6, cfg).value - exact))
    for e0, e1 in zip(errs, errs[1:]):
        if e0 < 1e-9:
            break
        assert e1 <= e0 / 1.5


# ---------------------------------------------------------------------------
# smooth-parts identity


def test_smooth_parts_constant_linear():
    f = lambda t: np.ones_like(np.asarray(t, dtype=float))
    assert smooth_parts_identity_check(f, lambda t: t, 0.5, 0.0, 1.0, CFG) <= 1e-6


def test_smooth_parts_polynomials():
    res = smooth_parts_identity_check(lambda t: t, lambda t: t**2, 0.3, 0.0, 1.0, CFG)
    assert res <= 1e-5


def test_smooth_parts_trig():
    res = smooth_parts_identity_check(np.cos, np.sin, 0.5, 0.0, 1.0, CFG)
    assert res <= 1e-5


def test_rs_midpoint_oracle():
    val = riemann_stieltjes_midpoint(lambda t: t**2, np.sin, 0.0, 1.0, 4096)
    assert val == pytest.approx(2.0 * math.cos(1.0) - math.sin(1.0), abs=1e-7)


def test_dl_dr_requires_admissible_orders():
    with pytest.raises(ValueError):
        dl_dr_integral(np.sin, np.cos, 0.5, 0.0, 1.0, mu_f=0.4, beta_g=1.0)
    with pytest.raises(ValueError):
        dl_dr_integral(np.sin, np.cos, 0.5, 0.0, 1.0, mu_f=1.0, beta_g=0.4)
