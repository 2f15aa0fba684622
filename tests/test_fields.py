import tracemalloc

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
    holder_seminorm_field,
    make_field,
    read_grid_json,
    write_grid_json,
)
from nlyoung.iterated import DiagonalField
from nlyoung.paths import make_function, make_weierstrass, sample_function

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
    with pytest.raises(ValueError, match="two nodes"):
        GridField([0.0, 1.0], [0.5], [[1.0], [2.0]])


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


def _increment_seminorm_terms(w, reg, a, b, box):
    """The three seminorm terms through the increment calls: the reference
    for the separable-term products of holder_seminorm_field."""
    from nlyoung.fields import _N_COARSE, _axis_pairs

    ts_s, ts_t = _axis_pairs(a, b)
    xs_s, xs_t = _axis_pairs(box[0], box[1])
    t_probe = np.linspace(a, b, _N_COARSE + 1)
    x_probe = np.linspace(box[0], box[1], _N_COARSE + 1)
    dt_pow = (ts_t - ts_s) ** reg.tau
    dx_pow = (xs_t - xs_s) ** reg.lam
    time_term = float(
        np.max(np.abs(w.increment_t(ts_s[:, None], ts_t[:, None], x_probe)) / dt_pow[:, None])
    )
    space_term = float(
        np.max(np.abs(w.increment_x(t_probe, xs_s[:, None], xs_t[:, None])) / dx_pow[:, None])
    )
    rect_term = 0.0
    chunk = max(1, 250_000 // xs_s.size)
    for lo in range(0, ts_s.size, chunk):
        sl = slice(lo, lo + chunk)
        r = w.increment_rect(ts_s[sl][:, None], ts_t[sl][:, None], xs_s[None, :], xs_t[None, :])
        ratios = np.abs(r) / (dt_pow[sl][:, None] * dx_pow[None, :])
        rect_term = max(rect_term, float(np.max(ratios)))
    n_pairs = ts_s.size * xs_s.size + ts_s.size * x_probe.size + xs_s.size * t_probe.size
    return rect_term, time_term, space_term, n_pairs


def _seminorm_media():
    rng = np.random.RandomState(11)
    product = ProductField(
        make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 6.0, 12))),
        make_weierstrass(0.8, 10, phases=list(rng.uniform(0.0, 6.0, 10))),
    )
    small = GridField(np.linspace(0.0, 1.0, 65), np.linspace(-1.0, 1.0, 33), rng.randn(65, 33))
    large = GridField(np.linspace(0.0, 1.0, 257), np.linspace(-1.0, 1.0, 65), rng.randn(257, 65))
    return {
        "product": product,
        "diagonal": DiagonalField(product, sample_function(np.cos, -1.0, 1.0, 256)),
        "grid-65x33": small,
        "grid-257x65": large,
        "sum": SumField(product, small),
        "difference": DifferenceField(product, small),
    }


_MEDIA = _seminorm_media()


@pytest.mark.parametrize("name", sorted(_MEDIA))
def test_field_seminorm_matches_increment_oracle(name):
    w = _MEDIA[name]
    reg = Regularity(0.6, 0.8, 0.7)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
    rect, time, space, n_pairs = _increment_seminorm_terms(w, reg, 0.0, 1.0, (-1.0, 1.0))
    assert rep.rect_term == pytest.approx(rect, rel=1e-13)
    assert rep.time_term == pytest.approx(time, rel=1e-13)
    assert rep.space_term == pytest.approx(space, rel=1e-13)
    assert rep.n_pairs_checked == n_pairs


@pytest.mark.parametrize("name", ["product", "grid-257x65"])
def test_field_seminorm_of_self_difference_vanishes(name):
    w = _MEDIA[name]
    reg = Regularity(0.6, 0.8, 0.7)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
    zero = holder_seminorm_field(DifferenceField(w, w), reg, 0.0, 1.0, (-1.0, 1.0))
    assert zero.rect_term <= 1e-13 * rep.rect_term
    assert zero.time_term <= 1e-13 * rep.time_term
    assert zero.space_term <= 1e-13 * rep.space_term


def test_field_seminorm_memory_on_large_grid():
    w = _MEDIA["grid-257x65"]
    reg = Regularity(0.6, 0.8, 0.7)
    tracemalloc.start()
    try:
        holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    name=st.sampled_from(sorted(_MEDIA)),
    t=st.floats(0.0, 1.0),
    x=st.floats(-1.0, 1.0),
)
def test_separable_terms_reproduce_eval(name, t, x):
    w = _MEDIA[name]
    expanded = sum(float(g(np.array(t))) * float(h(np.array(x))) for g, h in w.separable_terms())
    direct = float(w.eval(t, x))
    assert abs(expanded - direct) <= 1e-13 * max(1.0, abs(direct))


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
        assert (rep.time_term, rep.space_term) == pytest.approx(
            _looped_time_space_terms(w, reg, 0.0, 1.0, (-1.0, 1.0)), rel=1e-13
        )


class _BareField(Field):
    """A medium given only by eval: no separable expansion."""

    def eval(self, t, x):
        return np.sin(np.asarray(t) * np.asarray(x))


def test_field_seminorm_probe_grid_errors():
    w = ProductField(ident, ident)
    reg = Regularity(1.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        holder_seminorm_field(w, reg, 0.0, 1.0, (1.0, 0.0))
    for a, b, box in [(np.nan, 1.0, (0.0, 1.0)), (0.0, np.inf, (0.0, 1.0)),
                      (0.0, 1.0, (np.nan, 1.0)), (0.0, 1.0, (0.0, np.inf))]:
        with pytest.raises(ValueError, match="need finite"):
            holder_seminorm_field(w, reg, a, b, box)
    grid = _sampled_grid(lambda t, x: t * x)
    with pytest.raises(ValueError, match="outside"):
        holder_seminorm_field(grid, reg, 0.0, 1.0, (-0.5, 1.0))
    with pytest.raises(ValueError, match="GridField"):
        holder_seminorm_field(_BareField(), reg, 0.0, 1.0, (0.0, 1.0))


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
