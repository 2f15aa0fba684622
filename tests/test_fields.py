import numpy as np
import pytest

from nlyoung.fields import (
    DifferenceField,
    GridField,
    ProductField,
    Regularity,
    RegularityError,
    SumField,
    holder_seminorm_field,
    make_field,
    read_grid_json,
    write_grid_json,
)
from nlyoung.paths import make_function, make_weierstrass

ident = make_function("identity")
one = make_function("const:c=1")


def test_regularity_window_and_admissibility():
    reg = Regularity(0.6, 1.0, 0.7)
    assert reg.alpha_window() == (pytest.approx(0.4), pytest.approx(0.7))
    assert reg.alpha == pytest.approx(0.55)
    assert reg.admissible()
    assert reg.epsilon() == pytest.approx(0.3)
    bad = Regularity(0.5, 1.0, 0.4, 0.6)
    assert not bad.admissible()
    with pytest.raises(RegularityError):
        bad.require_admissible()
    with pytest.raises(ValueError):
        Regularity(1.3, 1.0, 1.0)


def test_product_field_increments_exact():
    w = ProductField(ident, ident)  # W(t,x) = t*x
    assert w.increment_rect(0.0, 1.0, 0.0, 1.0) == 1.0
    assert w.increment_t(0.3, 0.3, 0.8) == 0.0
    assert w.increment_rect(0.4, 0.4, 0.1, 0.9) == 0.0
    assert w.increment_rect(0.2, 0.7, 0.5, 0.5) == 0.0


def test_constant_time_factor_kills_rectangles():
    w = ProductField(make_function("const:c=2"), ident)
    s, t = np.random.RandomState(0).rand(2, 50)
    assert np.all(w.increment_rect(s, t, s, t) == 0.0)


def test_product_rect_matches_four_point():
    g = make_weierstrass(0.6, 10)
    h = make_weierstrass(0.8, 10)
    w = ProductField(g, h)
    rng = np.random.RandomState(42)
    s, t, x, y = rng.rand(4, 100)
    four_point = w.eval(s, x) - w.eval(t, x) - w.eval(s, y) + w.eval(t, y)
    np.testing.assert_allclose(w.increment_rect(s, t, x, y), four_point, atol=1e-10)


def test_rect_equals_time_increment_difference():
    g = make_weierstrass(0.6, 8)
    w = ProductField(g, ident)
    rng = np.random.RandomState(3)
    s, t, x, y = rng.rand(4, 200)
    lhs = w.increment_rect(s, t, x, y)
    rhs = w.increment_t(t, s, x) - w.increment_t(t, s, y)
    scale = np.maximum(np.abs(lhs), 1e-30)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12 + 1e-9


def test_sum_and_difference_fields():
    w1 = ProductField(np.sin, ident)
    w2 = ProductField(np.cos, ident)
    tot = SumField(w1, w2)
    dif = DifferenceField(w1, w2)
    s, t, x, y = 0.1, 0.6, -0.3, 0.8
    assert tot.eval(t, x) == pytest.approx(w1.eval(t, x) + w2.eval(t, x))
    assert dif.increment_rect(s, t, x, y) == pytest.approx(
        w1.increment_rect(s, t, x, y) - w2.increment_rect(s, t, x, y)
    )


# ---------------------------------------------------------------------------
# grid fields


def _sampled_grid(fn, nt=65, nx=65):
    ts = np.linspace(0.0, 1.0, nt)
    xs = np.linspace(0.0, 1.0, nx)
    return GridField(ts, xs, fn(ts[:, None], xs[None, :]))


def test_grid_field_validation():
    with pytest.raises(ValueError):
        GridField([0.0, 1.0], [0.0, 1.0], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        GridField([0.0, 0.0], [0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])


def test_grid_field_matches_bilinear_data():
    grid = _sampled_grid(lambda t, x: t * x)
    # t*x is bilinear, so interpolation is exact
    rng = np.random.RandomState(1)
    t, x = rng.rand(2, 64)
    np.testing.assert_allclose(grid.eval(t, x), t * x, atol=1e-14)
    np.testing.assert_allclose(grid.increment_t(0.2, 0.9, x), (0.9 - 0.2) * x, atol=1e-14)
    np.testing.assert_allclose(
        grid.increment_rect(0.1, 0.7, 0.2, 0.5), (0.1 - 0.7) * (0.2 - 0.5), atol=1e-14
    )


def test_grid_increments_zero_cases_exact():
    grid = _sampled_grid(lambda t, x: np.cos(3 * t) * np.sin(2 * x + 1))
    assert grid.increment_t(0.37, 0.37, 0.8) == 0.0
    assert grid.increment_rect(0.37, 0.37, 0.2, 0.9) == 0.0
    assert grid.increment_rect(0.1, 0.8, 0.44, 0.44) == 0.0


def test_grid_rect_identity_against_time_increments():
    grid = _sampled_grid(lambda t, x: np.cos(3 * t) * np.sin(2 * x + 1))
    rng = np.random.RandomState(7)
    s, t, x, y = rng.rand(4, 300)
    lhs = grid.increment_rect(s, t, x, y)
    rhs = grid.increment_t(t, s, x) - grid.increment_t(t, s, y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_grid_eval_outside_domain():
    grid = _sampled_grid(lambda t, x: t + x)
    with pytest.raises(ValueError):
        grid.eval(1.5, 0.5)


def test_grid_json_round_trip(tmp_path):
    grid = _sampled_grid(lambda t, x: t**2 + x, nt=9, nx=7)
    fn = tmp_path / "grid.json"
    write_grid_json(fn, grid)
    back = read_grid_json(fn)
    assert np.array_equal(back.ts, grid.ts)
    assert np.array_equal(back.values, grid.values)


# ---------------------------------------------------------------------------
# field seminorms


def test_field_seminorm_linear_product():
    w = ProductField(ident, ident)
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (0.0, 1.0))
    assert rep.rect_term == pytest.approx(1.0, abs=1e-9)
    assert rep.time_term == pytest.approx(1.0, abs=1e-9)
    assert rep.space_term == pytest.approx(1.0, abs=1e-9)
    assert rep.norm == pytest.approx(3.0, abs=1e-8)
    assert rep.bracket == rep.rect_term


def test_field_seminorm_constant_field():
    w = ProductField(make_function("const:c=5"), one)
    reg = Regularity(0.5, 0.5, 1.0, 0.4)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (0.0, 1.0))
    assert rep.rect_term == 0.0
    assert rep.time_term == 0.0
    assert rep.space_term == 0.0


def test_field_seminorm_factorizes_for_products():
    from nlyoung.paths import holder_seminorm_path, sample_function

    g = make_weierstrass(0.6, 10)
    h = make_weierstrass(0.8, 10)
    w = ProductField(g, h)
    reg = Regularity(0.6, 0.8, 1.0, 0.5)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (0.0, 1.0))
    g_norm = holder_seminorm_path(sample_function(g, 0.0, 1.0, 2048), 0.6, 0.0, 1.0).seminorm
    h_norm = holder_seminorm_path(sample_function(h, 0.0, 1.0, 2048), 0.8, 0.0, 1.0).seminorm
    assert rep.rect_term == pytest.approx(g_norm * h_norm, rel=0.15)


def _looped_time_space_terms(w, reg, a, b, box):
    """The time and space seminorm terms with one increment call per probe."""
    from nlyoung.fields import _axis_pairs

    ts_s, ts_t = _axis_pairs(a, b)
    xs_s, xs_t = _axis_pairs(box[0], box[1])
    time_term = max(
        float(np.max(np.abs(w.increment_t(ts_s, ts_t, x)) / (ts_t - ts_s) ** reg.tau))
        for x in np.linspace(box[0], box[1], 41)
    )
    space_term = max(
        float(np.max(np.abs(w.increment_x(t, xs_s, xs_t)) / (xs_t - xs_s) ** reg.lam))
        for t in np.linspace(a, b, 41)
    )
    return time_term, space_term


def test_field_seminorm_broadcast_probes_match_loop():
    rng = np.random.RandomState(2)
    product = ProductField(
        make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 6.0, 12))),
        make_weierstrass(0.8, 10, phases=list(rng.uniform(0.0, 6.0, 10))),
    )
    grid = GridField(np.linspace(0.0, 1.0, 65), np.linspace(-1.0, 1.0, 33), rng.randn(65, 33))
    reg = Regularity(0.6, 0.8, 0.7)
    for w in (product, grid):
        rep = holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
        assert (rep.time_term, rep.space_term) == _looped_time_space_terms(
            w, reg, 0.0, 1.0, (-1.0, 1.0)
        )


def test_field_seminorm_probe_grid_errors():
    w = ProductField(ident, ident)
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        holder_seminorm_field(w, reg, 0.0, 1.0, (1.0, 0.0))


# ---------------------------------------------------------------------------
# descriptors


def test_make_field_descriptors(tmp_path):
    w = make_field("product:g=(weierstrass:H=0.6,scales=8),h=(identity)")
    assert isinstance(w, ProductField)
    assert "weierstrass" in w.descriptor
    d = make_field("diff:a=(product:g=(sin),h=(identity)),b=(product:g=(cos),h=(identity))")
    assert isinstance(d, DifferenceField)
    grid = _sampled_grid(lambda t, x: t + x, nt=5, nx=5)
    fn = tmp_path / "g.json"
    write_grid_json(fn, grid)
    loaded = make_field(str(fn))
    assert isinstance(loaded, GridField)
    with pytest.raises(ValueError):
        make_field("mystery:x=1")
