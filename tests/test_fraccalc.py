import math
from math import gamma

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung import fraccalc, quadrature
from nlyoung.fraccalc import (
    dl_dr_integral,
    dl_dr_sampled,
    frac_integral_left,
    frac_integral_right,
    grid_rows,
    odd_rows,
    weyl_left,
    weyl_right,
)
from nlyoung.paths import path_diff
from nlyoung.quadrature import QuadratureConfig, refine_levels

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
    # kernel amplifies that noise by ~spacing^(-alpha) (up to 1e-13 at alpha=0.85)
    noise = np.finfo(float).eps * (2.0 * abs(c0) + abs(c1)) * max(abs(a), abs(b), 1.0)
    noise *= (CFG.n_nodes / width) ** alpha
    right = weyl_right(f, alpha, t, b, 1.0, CFG)
    left = weyl_left(f_reflected, alpha, a, a + b - t, 1.0, CFG)
    assert right.value == pytest.approx(left.value, rel=1e-10, abs=1e-12 + 16.0 * noise)
    # the error estimates carry that rounding floor
    assert abs(right.value - left.value) <= right.error_estimate + left.error_estimate


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    alpha=st.floats(0.05, 0.95),
    side=st.sampled_from([-1.0, 1.0]),
    a=st.floats(-2.0, 2.0),
    length=st.floats(1e-2, 4.0),
    c0=st.floats(-3.0, 3.0),
    c1=st.floats(-3.0, 3.0),
)
def test_single_point_operators_exact_on_affine_f(alpha, side, a, length, c0, c1):
    # f(s) = c0 + c1 s is piecewise linear on every grid, so the hat weights
    # integrate both kernels exactly: the difference f(t) - f(t + side u) is
    # -side c1 u, whose Marchaud integral is -side c1 L^(1-alpha) / (1-alpha)
    b = a + length
    t = b if side < 0 else a
    f = lambda s: c0 + c1 * np.asarray(s, dtype=float)
    cfg = QuadratureConfig(n_nodes=64)
    if side < 0:
        frac, weyl = frac_integral_left(f, alpha, a, b, cfg), weyl_left(f, alpha, a, b, 1.0, cfg)
    else:
        frac, weyl = frac_integral_right(f, alpha, a, b, cfg), weyl_right(f, alpha, a, b, 1.0, cfg)
    ft = c0 + c1 * t
    want = ft * length**alpha / gamma(alpha + 1.0) + side * c1 * length ** (alpha + 1.0) / ((alpha + 1.0) * gamma(alpha))
    scale = (abs(c0) + abs(c1) * max(abs(a), abs(b), 1.0)) * max(length, 1.0) ** 2
    assert frac.value == pytest.approx(want, rel=1e-11, abs=1e-12 * scale)
    want = (ft / length**alpha - alpha * side * c1 * length ** (1.0 - alpha) / (1.0 - alpha)) / gamma(1.0 - alpha)
    assert weyl.value == pytest.approx(want, rel=1e-11, abs=1e-12 * scale * length**-alpha)


def _infinite_at(end):
    def f(s):
        with np.errstate(divide="ignore"):
            return np.abs(np.asarray(s, dtype=float) - end) ** -0.5

    return f


_SINGLE_POINT_OPS = {
    "ileft": lambda f: frac_integral_left(f, 0.5, 0.0, 1.0, CFG),
    "iright": lambda f: frac_integral_right(f, 0.5, 0.0, 1.0, CFG),
    "dleft": lambda f: weyl_left(f, 0.3, 0.0, 1.0, 0.5, CFG),
    "dright": lambda f: weyl_right(f, 0.3, 0.0, 1.0, 0.5, CFG),
}


@pytest.mark.parametrize("end", [0.0, 1.0])
@pytest.mark.parametrize("op", sorted(_SINGLE_POINT_OPS))
def test_single_point_operators_reject_f_infinite_at_an_end(op, end):
    # both ends are nodes, so an integrable singularity at the evaluation point
    # or at the far end is an error, not an inf/nan value
    with pytest.raises(ValueError, match="finite on the closed interval"):
        _SINGLE_POINT_OPS[op](_infinite_at(end))


@pytest.mark.parametrize("n_nodes, kept", [(512, True), (8192, False)])
def test_single_point_operators_keep_their_hat_weights(monkeypatch, n_nodes, kept):
    # repeated calls at one (alpha, n_nodes) build the weights once, on grids
    # up to the kept plans' size; larger grids build theirs per call
    built = []

    def counting(p, n):
        built.append((p, n))
        return quadrature.hat_weights(p, n)

    monkeypatch.setattr(fraccalc, "hat_weights", counting)
    fraccalc._kept_weights.cache_clear()
    cfg = QuadratureConfig(n_nodes=n_nodes)
    calls = [lambda: frac_integral_left(np.sin, 0.37, 0.0, 1.0, cfg),
             lambda: weyl_right(np.sin, 0.37, 0.0, 1.0, cfg=cfg)]
    first = [call() for call in calls]
    assert [call() for call in calls] == first
    once = [(0.37 - 1.0, n_nodes), (-0.37 - 1.0, n_nodes + 1)]
    assert built == (once if kept else 2 * once)
    fraccalc._kept_weights.cache_clear()


def test_small_budgets_cover_their_error_or_say_not_converged():
    # levels n/4, n/2, n are distinct however small n is, so a coarse result
    # either carries its error in the estimate or reports converged=False
    true = -(0.5 - math.sin(2.0) / 4.0)  # int_0^1 sin d(cos)
    res = dl_dr_integral(np.sin, np.cos, 0.5, 0.0, 1.0, cfg=QuadratureConfig(n_outer=8))
    assert abs(res.value - true) <= res.error_estimate or not res.converged
    assert len(set(res.levels)) == 3
    true = frac_integral_left(np.sin, 0.5, 0.0, 1.0, CFG).value
    res = frac_integral_left(np.sin, 0.5, 0.0, 1.0, QuadratureConfig(n_nodes=8))
    assert abs(res.value - true) <= res.error_estimate or not res.converged
    assert len(set(res.levels)) == 3


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
    # the inner integrals' quadrature error is noise to the outer derivative,
    # which amplifies it by the outer spacing's power only
    inner_cfg = QuadratureConfig(n_nodes=512)
    outer_cfg = QuadratureConfig(n_nodes=1024)

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


def riemann_stieltjes_midpoint(f, g, a, b, n):
    """Midpoint Riemann-Stieltjes sum  sum f(mid_i) (g(t_(i+1)) - g(t_i))."""
    ts = np.linspace(a, b, n + 1)
    mids = 0.5 * (ts[1:] + ts[:-1])
    return float(np.asarray(f(mids), dtype=float) @ path_diff(g, ts[1:], ts[:-1]))


def smooth_parts_identity_check(f, g, alpha, a, b, cfg):
    """Residual of the fractional integration-by-parts identity on smooth f, g.

    Compares the classical Riemann-Stieltjes value of int f dg (midpoint
    rule, Richardson refined) against the composed fractional form; returns
    the absolute difference.
    """
    classical = refine_levels(
        lambda n: riemann_stieltjes_midpoint(f, g, a, b, n), cfg.n_nodes, cfg.tol, order=2.0
    )
    fractional = dl_dr_integral(f, g, alpha, a, b, mu_f=1.0, beta_g=1.0, cfg=cfg)
    return abs(classical.value - fractional.value)


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


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_non_finite_endpoints_rejected(lo, hi):
    ops = [
        lambda: frac_integral_left(np.sin, 0.5, lo, hi, CFG),
        lambda: frac_integral_right(np.sin, 0.5, lo, hi, CFG),
        lambda: weyl_left(np.sin, 0.5, lo, hi, cfg=CFG),
        lambda: weyl_right(np.sin, 0.5, lo, hi, cfg=CFG),
        lambda: dl_dr_integral(np.sin, np.cos, 0.5, lo, hi),
    ]
    for op in ops:
        with pytest.raises(ValueError, match="finite"):
            op()


def test_dl_dr_requires_admissible_orders():
    with pytest.raises(ValueError):
        dl_dr_integral(np.sin, np.cos, 0.5, 0.0, 1.0, mu_f=0.4, beta_g=1.0)
    with pytest.raises(ValueError):
        dl_dr_integral(np.sin, np.cos, 0.5, 0.0, 1.0, mu_f=1.0, beta_g=0.4)


@pytest.mark.parametrize("n_rows", [1, 3])
def test_dl_dr_sampled_cold_and_warm_plan_bitwise_equal(n_rows):
    # 576 cells, an indefinite integral's grid: the plan is kept after the first solve
    cfg = QuadratureConfig(n_outer=96)
    fs = [lambda t, k=k: np.sin((k + 1.0) * t) for k in range(n_rows)]
    gs = [lambda t, k=k: np.cos(t / (k + 1.0)) for k in range(n_rows)]
    fv, gv = grid_rows(fs, 0.2, 0.7, cfg), grid_rows(gs, 0.2, 0.7, cfg)

    def odd(n):
        return odd_rows(fs, 0.2, 0.7, n), odd_rows(gs, 0.2, 0.7, n)

    quadrature._kept_plan.cache_clear()
    cold = dl_dr_sampled(fv, gv, 0.35, 0.2, 0.7, cfg, odd)
    assert quadrature.grid_plan(0.35, cfg.grid_cells()) is quadrature.grid_plan(0.35, cfg.grid_cells())
    warm = dl_dr_sampled(fv, gv, 0.35, 0.2, 0.7, cfg, odd)
    assert cold == warm
