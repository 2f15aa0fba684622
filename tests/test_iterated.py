import math

import numpy as np
import pytest

from nlyoung import nonlinear
from nlyoung.fields import GridField, ProductField, RegularityError, SumField
from nlyoung.iterated import (
    DiagonalField,
    GrowthParams,
    JointField,
    _identity,
    _stage_path,
    diagonal_integral,
    growth_check,
    iterated_integral,
)
from nlyoung.nonlinear import Germ
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


def _three_stride_stage_path(germ, a, b, n_points, fine_level):
    """A stage path from one dyadic partition at level F = max(fine_level,
    log2(n_points - 1) + 2): the germ called at strides 1, 2 and 4 of its
    nodes, with no node reuse, partial sums read at the output nodes and
    extrapolated at the order fitted at the endpoint."""
    m_out = n_points - 1
    fine = max(fine_level, int(math.log2(m_out)) + 2)
    ts = np.linspace(a, b, 2**fine + 1)

    def partials(step):
        inc = np.asarray(germ(ts[:-step:step], ts[step::step]), dtype=float)
        return np.concatenate([[0.0], np.cumsum(inc)])[:: 2**fine // m_out // step]

    p_fine, p_mid, p_coarse = partials(1), partials(2), partials(4)
    d1, d2 = p_mid[-1] - p_coarse[-1], p_fine[-1] - p_mid[-1]
    if d1 != 0.0 and d2 != 0.0:
        order = math.log2(abs(d1) / abs(d2))
        if 0.05 <= order <= 4.0:
            values = p_fine + (p_fine - p_mid) / (2.0**order - 1.0)
            return values, abs(values[-1] - p_fine[-1])
    return p_fine, abs(d2)


def _term_germ(terms, phi):
    """sum_k (g_k(t) - g_k(s)) h_k(phi(s)) over the separable terms, added in
    term order: the germ that node reuse forms."""

    def germ(s, t):
        x = phi(s)
        out = None
        for g, h in terms:
            term = (g(t) - g(s)) * h(x)
            out = term if out is None else out + term
        return out

    return germ


def _stage_media():
    rng = np.random.RandomState(5)
    ts, xs = np.linspace(0.0, 1.0, 65), np.linspace(-1.5, 1.5, 17)
    grid = GridField(ts, xs, rng.randn(ts.size, xs.size))
    wei = make_weierstrass(0.7, 10, phases=list(rng.uniform(0.0, 2.0 * np.pi, 10)))
    grid_and_wei = SumField(grid, ProductField(wei, np.sin))
    density = sample_function(np.cos, 0.0, 1.0, 256)
    carrier = sample_function(lambda t: np.sin(3.0 * t), 0.0, 1.0, 256)
    # (medium, path, whether the stage reuses nodes)
    return {
        "grid-diagonal": (DiagonalField(grid, density), _identity, False),
        "grid-spatial": (grid, carrier, False),
        "sum-diagonal": (DiagonalField(grid_and_wei, density), _identity, False),
        "sampled-g-spatial": (ProductField(sample_function(wei, 0.0, 1.0, 300), np.sin), carrier, True),
        "sin-diagonal": (DiagonalField(ProductField(np.sin, np.exp), density), _identity, True),
        "sin-spatial": (ProductField(np.sin, np.exp), carrier, True),
        "plain-wei-diagonal": (DiagonalField(ProductField(wei.__call__, np.cos), density), _identity, True),
    }


@pytest.mark.parametrize("name", sorted(_stage_media()))
@pytest.mark.parametrize("n_points, fine_level", [(257, 12), (2049, 10)])
def test_stage_path_matches_three_stride_oracle(name, n_points, fine_level):
    w, phi, reuses_nodes = _stage_media()[name]
    terms = w.separable_terms()
    assert reuses_nodes == (terms is not None and 1 <= len(terms) <= nonlinear._REUSE_TERMS)
    path, err = _stage_path(w, phi, 0.2, 0.9, n_points, fine_level)
    germ = _term_germ(terms, phi) if reuses_nodes else Germ(w, phi)
    want, want_err = _three_stride_stage_path(germ, 0.2, 0.9, n_points, fine_level)
    np.testing.assert_array_equal(path.ts, np.linspace(0.2, 0.9, n_points))
    # the error estimate is |correction| at b, where the oracle takes
    # |extrapolated - finest|: the same up to one rounding of the path's value
    assert err == pytest.approx(want_err, rel=1e-12, abs=4 * np.finfo(float).eps * abs(want[-1]))
    np.testing.assert_array_equal(path.values, want)
    if reuses_nodes:
        # node reuse takes plain differences of a sampled g where the germ
        # takes g.diff, and forms dg (rho h) where the germ forms rho (dg h)
        germ_path, _ = _three_stride_stage_path(Germ(w, phi), 0.2, 0.9, n_points, fine_level)
        scale = float(np.max(np.abs(germ_path)))
        np.testing.assert_allclose(path.values, germ_path, rtol=1e-13, atol=1e-13 * scale)


class _CountingG:
    """A plain callable, sin by default, that counts the points it is
    evaluated at."""

    def __init__(self, f=np.sin):
        self.f = f
        self.points = 0

    def __call__(self, t):
        self.points += np.size(t)
        return self.f(t)


@pytest.mark.parametrize("name, points", [
    ("grid-spatial", 2**10 + 2**11 + 2**12),  # the germ's left nodes at levels 10-12
    ("sin-spatial", 2**12 + 1),  # every node of level 12 once
])
def test_stage_forms_only_its_three_levels(name, points):
    w, carrier, _ = _stage_media()[name]
    phi = _CountingG(carrier)
    _stage_path(w, phi, 0.2, 0.9, 257, 12)
    assert phi.points == points


@pytest.mark.parametrize("variant", ["diagonal", "spatial"])
def test_stage_evaluates_g_once_per_node(variant):
    g = _CountingG()
    joint = JointField(ProductField(g, np.cos), 1.0, 1.0)
    iterated_integral([joint], ident, 0.0, 1.0, n_points=257, fine_level=12, variant=variant)
    assert g.points == 2**12 + 1


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
