import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung.fields import (
    DifferenceField,
    Field,
    GridField,
    ProductField,
    Regularity,
    RegularityError,
    SumField,
)
from nlyoung.fraccalc import dl_dr_integral
from nlyoung.iterated import DiagonalField
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
from nlyoung.paths import make_function, make_weierstrass, sample_function
from nlyoung.quadrature import QuadratureConfig
from nlyoung.young import young_integral

ident = make_function("identity")
one = make_function("const:c=1")
SMOOTH = Regularity(1.0, 1.0, 1.0, 0.5)


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


def test_separable_media_take_the_grid_route():
    # W = g(t) h(x): the fractional expansion is the Young form of int h(phi) dg
    g = make_weierstrass(0.7, 12, phases=[0.3] * 12)
    h = make_weierstrass(0.8, 10)
    phi = make_weierstrass(0.625, 12)
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
    rep, trace = integrate_sewing(w, phi, 0.0, 1.0, max_levels=16, tol=0.0)
    assert rep.levels_used == 16
    assert rep.converged
    assert trace.fitted_order(8, 14) >= 0.2  # epsilon - 0.1 for eps = 0.3
    assert len(trace.sums) == 17


def _sewing_media():
    rng = np.random.RandomState(11)
    g = make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 2.0 * np.pi, 12)))
    h = make_weierstrass(0.9, 10, phases=list(rng.uniform(0.0, 2.0 * np.pi, 10)))
    xs = np.linspace(-3.0, 3.0, 17)
    return {
        "weierstrass-product": ProductField(g, h),
        "sin-product": ProductField(np.sin, ident),
        "sampled-g-product": ProductField(sample_function(g, 0.0, 1.0, 300), h),
        "grid": GridField(np.linspace(0.0, 1.0, 33), xs, rng.randn(33, xs.size)),
        "diagonal": DiagonalField(ProductField(g, h), sample_function(np.cos, -3.0, 3.0, 256)),
    }


SEWING_MEDIA = _sewing_media()
SEWING_PHI = make_weierstrass(0.7, 12, phases=[0.3 * k for k in range(12)])


def _naive_germ_sums(w, phi, a, b, levels):
    """Per-level germ Riemann sums, every node of every level evaluated afresh."""
    germ = Germ(w, phi)
    sums = []
    for k in range(levels + 1):
        ts = np.linspace(a, b, 2**k + 1)
        sums.append(float(np.sum(germ(ts[:-1], ts[1:]))))
    return tuple(sums)


@pytest.mark.parametrize("name", sorted(SEWING_MEDIA))
@pytest.mark.parametrize("interval", [(0.0, 1.0), (0.13, 0.71)])
def test_sewing_sums_bitwise_equal_naive_germ_sums(name, interval):
    w = SEWING_MEDIA[name]
    a, b = interval
    rep, trace = integrate_sewing(w, SEWING_PHI, a, b, max_levels=12, tol=0.0)
    assert rep.levels_used == 12
    if isinstance(w, DiagonalField):
        # node reuse runs on the medium's term (g, rho*h), so its sums are
        # the germ sums of that product, not of rho * (increment of F)
        (g, h), = w.separable_terms()
        assert trace.sums == _naive_germ_sums(ProductField(g, h), SEWING_PHI, a, b, 12)
        assert trace.sums == pytest.approx(_naive_germ_sums(w, SEWING_PHI, a, b, 12), rel=1e-13)
    else:
        assert trace.sums == _naive_germ_sums(w, SEWING_PHI, a, b, 12)


@pytest.mark.parametrize("name", ["weierstrass-product", "grid"])
def test_sewing_early_stop_sums_bitwise_equal(name):
    w = SEWING_MEDIA[name]
    smooth_phi = make_function("sin")
    rep, trace = integrate_sewing(w, smooth_phi, 0.13, 0.71, max_levels=16, tol=1e-4)
    assert rep.params["stop_reason"] == "tol"
    assert rep.levels_used < 16
    assert trace.sums == _naive_germ_sums(w, smooth_phi, 0.13, 0.71, rep.levels_used)


class _Counting:
    """A path that counts the points it is evaluated at (and has no diff)."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)


@pytest.mark.parametrize("max_levels, tol", [(10, 0.0), (16, 1e-4)])
def test_separable_sewing_evaluates_each_node_once(max_levels, tol):
    g = _Counting(make_weierstrass(0.6, 12))
    phi = _Counting(np.sin)
    rep, _ = integrate_sewing(ProductField(g, ident), phi, 0.0, 1.0, max_levels=max_levels, tol=tol)
    assert g.points == phi.points == 2**rep.levels_used + 1


def test_sewing_stop_reason():
    w = ProductField(ident, ident)
    rep, _ = integrate_sewing(w, ident, 0.0, 1.0, max_levels=8, tol=0.0)
    assert rep.params["stop_reason"] == "max_levels"
    assert rep.levels_used == 8
    rep, _ = integrate_sewing(w, ident, 0.0, 1.0, max_levels=30, tol=1e-3)
    assert rep.params["stop_reason"] == "tol"
    assert rep.levels_used < 30


@pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf)])
def test_non_finite_endpoints_rejected(a, b):
    w = ProductField(np.sin, ident)
    with pytest.raises(ValueError, match="finite"):
        integrate_sewing(w, ident, a, b)
    with pytest.raises(ValueError, match="finite"):
        integrate_fractional(w, ident, SMOOTH, a, b, with_bounds=False)


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
