import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlyoung import fields
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
from nlyoung.nonlinear import integrate_fractional, integrate_sewing
from nlyoung.paths import SampledPath, make_function, make_weierstrass, path_diff, sample_function

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


@pytest.mark.parametrize("ts, xs", [
    ([0.0, 0.5, np.inf], [0.0, 1.0]),
    ([-np.inf, 0.5, 1.0], [0.0, 1.0]),
    ([0.0, 0.5, 1.0], [0.0, np.inf]),
    ([0.0, 0.5, 1.0], [-np.inf, 1.0]),
])
def test_grid_field_rejects_non_finite_axes(ts, xs):
    # an infinite end node made the range check's slack infinite, so any
    # query passed it and increments past the last finite node read 0
    with pytest.raises(ValueError, match="axes must be finite"):
        GridField(ts, xs, np.ones((len(ts), len(xs))))


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


def _oracle_locate(axis, q):
    """Cell index by a binary search per query, and the fraction in the cell."""
    q = np.asarray(q, dtype=float)
    idx = np.clip(np.searchsorted(axis, q, side="right") - 1, 0, axis.size - 2)
    return idx, (q - axis[idx]) / (axis[idx + 1] - axis[idx])


def _where_increment_t(grid, s, t, x):
    """W(t, x) - W(s, x) by both nodal formulas on every pair and np.where,
    with its own cell search and row differences: the reference that
    GridField.increment_t must match bitwise."""
    s, t, x = np.broadcast_arrays(
        np.asarray(s, dtype=float), np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    )
    it, u = _oracle_locate(grid.ts, t)
    is_, v = _oracle_locate(grid.ts, s)
    j, w = _oracle_locate(grid.xs, x)
    values = grid.values

    def rowdiff(p, q):  # row p minus row q, interpolated at x
        d0 = values[p, j] - values[q, j]
        d1 = values[p, j + 1] - values[q, j + 1]
        return d0 + w * (d1 - d0)

    cross = rowdiff(it, is_) + u * rowdiff(it + 1, it) - v * rowdiff(is_ + 1, is_)
    dt_cell = grid.ts[it + 1] - grid.ts[it]
    local = ((t - s) / dt_cell) * rowdiff(it + 1, it)
    out = np.where(it == is_, local, cross)
    return out if out.ndim else float(out)


def _assert_bitwise(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_grid_increment_t_bitwise_equal_where_oracle():
    rng = np.random.RandomState(5)
    grid = GridField(np.sort(np.r_[0.0, rng.rand(31), 1.0]), np.linspace(-1.0, 1.0, 17),
                     rng.randn(33, 17))
    ts = grid.ts
    cell = rng.randint(0, ts.size - 1, 500)
    lo, width = ts[cell], ts[cell + 1] - ts[cell]
    x = rng.uniform(-1.0, 1.0, 500)
    same = (lo + width * rng.rand(500), lo + width * rng.rand(500))
    other = (cell + rng.randint(1, ts.size - 1, 500)) % (ts.size - 1)
    crossing = (same[0], ts[other] + (ts[other + 1] - ts[other]) * rng.rand(500))
    assert np.all(_oracle_locate(ts, same[0])[0] == _oracle_locate(ts, same[1])[0])
    assert np.all(_oracle_locate(ts, crossing[0])[0] != _oracle_locate(ts, crossing[1])[0])
    mixed = (np.r_[same[0][:250], crossing[0][:250]], np.r_[same[1][:250], crossing[1][:250]])
    nodes = rng.choice(ts, 500)
    edges = [
        (nodes, np.minimum(nodes + width, 1.0)),    # s on a node
        (lo, ts[cell + 1]),                          # both ends of one cell
        (ts[cell + 1], lo),                          # reversed
        (nodes, rng.choice(ts, 500)),                # node to node
        (np.zeros(500), np.ones(500)),               # the whole axis
        (np.ones(500), rng.rand(500)),               # from the last node
    ]
    for s, t in [same, crossing, mixed, *edges]:
        _assert_bitwise(grid.increment_t(s, t, x), _where_increment_t(grid, s, t, x))
    for s, t, xx in [(0.3, 0.7, 0.1), (0.3, 0.3001, -0.2), (0.0, 1.0, 1.0), (0.5, 0.5, 0.0),
                     (ts[3], ts[4], -1.0), (1.0, 0.0, 0.3)]:
        got = grid.increment_t(s, t, xx)
        assert type(got) is float
        _assert_bitwise(got, _where_increment_t(grid, s, t, xx))
    s, t = rng.rand(7, 1), rng.rand(1, 9)
    for args in [(s, t, 0.25), (s, t, rng.uniform(-1.0, 1.0, (7, 9))), (0.4, t, s - 0.5),
                 (s[:, :, None], t[:, :, None], rng.uniform(-1.0, 1.0, 3))]:
        _assert_bitwise(grid.increment_t(*args), _where_increment_t(grid, *args))


def _assert_bitwise_or_nan(got, want):
    """Equal bits, except that a NaN need only meet a NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    kept = want == want  # all but the NaNs
    assert got[kept].tobytes() == want[kept].tobytes()


def _sorted_queries(rng, axis, n):
    """n sorted queries on axis: both ends, excursions within the range
    check's slack, ties on nodes and repeats of one value."""
    lo, hi = axis[0], axis[-1]
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    ends = np.array([lo, hi, lo - 0.5 * slack, hi + 0.5 * slack])
    pool = np.r_[ends, axis, rng.uniform(lo, hi, n)]
    # drawn with replacement from a pool about twice n long, so values repeat
    return np.sort(np.r_[ends[:n], rng.choice(pool, max(0, n - ends.size))])


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**31 - 1),
    nodes=st.integers(2, 40),
    uniform=st.booleans(),
    merged=st.booleans(),
    offset=st.integers(0, 3),
    anomaly=st.sampled_from([None, "below", "above", "nan"]),
)
def test_grid_sorted_queries_match_binary_search(seed, nodes, uniform, merged, offset, anomaly):
    # sorted queries at least _MERGE_RATIO times as many as the nodes are
    # located by a merge, shorter ones by a binary search; both must give
    # the oracle's cells, fractions and increments bit for bit
    rng = np.random.RandomState(seed)
    lo, width = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-1.0, 2.0)
    if uniform:
        ts = np.linspace(lo, lo + width, nodes)
    else:
        ts = lo + width * np.r_[0.0, np.cumsum(rng.uniform(0.1, 1.9, nodes - 1))] / nodes
    xs = np.linspace(-1.0, 1.0, 17)
    grid = GridField(ts, xs, rng.randn(ts.size, xs.size))
    n = fields._MERGE_RATIO * ts.size + offset if merged else fields._MERGE_RATIO * ts.size - 1 - offset
    q = _sorted_queries(rng, ts, n + 1)
    if anomaly == "below":
        q[0] = ts[0] - 1e-6 * width
    elif anomaly == "above":
        q[-1] = ts[-1] + 1e-6 * width
    elif anomaly == "nan":
        q[rng.randint(q.size)] = np.nan
    x = rng.uniform(-1.0, 1.0, n)
    other = np.sort(rng.uniform(ts[0], ts[-1], n))
    pairs = [(q[:-1], q[1:]), (q[1:], q[:-1]), (q[:-1], other), (other, q[1:])]
    if anomaly in ("below", "above"):
        with pytest.raises(ValueError, match="grid evaluation outside"):
            grid._locate(ts, q)
        for s, t in pairs[:2]:  # the pairs that hold every query
            with pytest.raises(ValueError, match="grid evaluation outside"):
                grid.increment_t(s, t, x)
        return
    for got, want in zip(grid._locate(ts, q), _oracle_locate(ts, q)):
        _assert_bitwise_or_nan(got, want)
    for s, t in pairs:
        _assert_bitwise_or_nan(grid.increment_t(s, t, x), _where_increment_t(grid, s, t, x))


# ---------------------------------------------------------------------------
# the rank expansion of grids


class _HatGrid(GridField):
    """A grid expanded exactly, column k interpolated in t times the hat at
    xs[k]: the reference for the rank expansion."""

    def separable_terms(self):
        hats = np.eye(self.xs.size)
        return [
            (SampledPath(self.ts, self.values[:, k]), SampledPath(self.xs, hats[k]))
            for k in range(self.xs.size)
        ]


def _rank2_grid_and_path():
    """W = a(t) x + b(t) sin(1.3 x + 0.4) on 257 x 65 nodes around a
    Weierstrass path, the grid-data medium."""
    rng = np.random.RandomState(0)
    phi = sample_function(make_weierstrass(0.6, 12, phases=list(rng.uniform(0.0, 2.0 * np.pi, 12))),
                          0.0, 1.0, 4096)
    lo, hi = float(np.min(phi.values)), float(np.max(phi.values))
    ts = np.linspace(0.0, 1.0, 257)
    xs = np.linspace(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 65)
    a_t, b_t = (make_weierstrass(0.7, 8, phases=list(rng.uniform(0.0, 2.0 * np.pi, 8)))(ts)
                for _ in range(2))
    values = a_t[:, None] * xs[None, :] + b_t[:, None] * np.sin(1.3 * xs[None, :] + 0.4)
    return ts, xs, values, phi


def _rank_grids():
    ts, xs, values, _ = _rank2_grid_and_path()
    rng = np.random.RandomState(3)
    t65, x33 = np.linspace(0.0, 1.0, 65), np.linspace(-1.0, 1.0, 33)
    # singular values 1, 0.1, ..., 1e-12: all far above 65 eps, so all kept
    left, right = np.linalg.qr(rng.randn(65, 13))[0], np.linalg.qr(rng.randn(33, 13))[0]
    graded = (left * 10.0 ** -np.arange(13)) @ right.T
    return {
        "rank2": (GridField(ts, xs, values), 2),
        "outer": (GridField(t65, x33, np.outer(t65, x33)), 1),
        "random": (GridField(t65, x33, rng.randn(65, 33)), 33),
        "graded": (GridField(t65, x33, graded), 13),
    }


@pytest.mark.parametrize("name", ["rank2", "outer", "random", "graded"])
def test_grid_rank_expansion_term_count_and_reproduction(name):
    grid, rank = _rank_grids()[name]
    terms = grid.separable_terms()
    assert len(terms) == rank
    m, n = grid.values.shape
    bound = 4 * max(m, n) * np.finfo(float).eps * np.linalg.norm(grid.values, 2)
    nodal = sum(np.outer(g.values, h.values) for g, h in terms)
    assert np.max(np.abs(nodal - grid.values)) <= bound
    rng = np.random.RandomState(8)
    t = rng.uniform(grid.ts[0], grid.ts[-1], 2000)
    x = rng.uniform(grid.xs[0], grid.xs[-1], 2000)
    expanded = sum(g(t) * h(x) for g, h in terms)
    assert np.max(np.abs(expanded - grid.eval(t, x))) <= bound


def test_zero_grid_has_one_zero_term_and_integrates_to_zero():
    grid = GridField(np.linspace(0.0, 1.0, 9), np.linspace(-2.0, 2.0, 5), np.zeros((9, 5)))
    (g, h), = grid.separable_terms()
    assert not np.any(g.values)
    phi = make_function("sin")
    reg = Regularity(0.7, 1.0, 0.6)
    rep = integrate_fractional(grid, phi, reg, 0.0, 1.0)
    assert rep.value == 0.0
    assert "holder" not in rep.bound_ratios
    assert integrate_sewing(grid, phi, 0.0, 1.0)[0].value == 0.0
    norms = holder_seminorm_field(grid, reg, 0.0, 1.0, (-1.0, 1.0))
    assert (norms.rect_term, norms.time_term, norms.space_term) == (0.0, 0.0, 0.0)


def test_grid_rank_terms_computed_once(monkeypatch):
    grid, rank = _rank_grids()["rank2"]
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    first = grid.separable_terms()
    first.append(first[0])
    first.clear()
    second = grid.separable_terms()
    assert len(calls) == 1
    assert len(second) == rank
    assert all(a is b for a, b in zip(second, grid.separable_terms()))
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["rank2", "random"])
def test_grid_rank_expansion_matches_hat_expansion(name):
    ts, xs, values, phi = _rank2_grid_and_path()
    if name == "random":
        values = np.random.RandomState(4).randn(*values.shape)
    grid, hats = GridField(ts, xs, values), _HatGrid(ts, xs, values)
    reg = Regularity(0.7, 1.0, 0.6)
    got = integrate_fractional(grid, phi, reg, 0.0, 1.0, with_bounds=False)
    want = integrate_fractional(hats, phi, reg, 0.0, 1.0, with_bounds=False)
    assert got.value == pytest.approx(want.value, rel=1e-12)
    box = (float(xs[0]), float(xs[-1]))
    rep = holder_seminorm_field(grid, reg, 0.0, 1.0, box)
    ref = holder_seminorm_field(hats, reg, 0.0, 1.0, box)
    assert rep.rect_term == pytest.approx(ref.rect_term, rel=1e-13)
    assert rep.time_term == pytest.approx(ref.time_term, rel=1e-13)
    assert rep.space_term == pytest.approx(ref.space_term, rel=1e-13)


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


def _axis_pairs(lo, hi):
    """The probe pairs of holder_seminorm_field on [lo, hi], as the nodes of
    their two ends: all coarse pairs and the fine small lags."""
    nodes = fields._axis_nodes(lo, hi)
    first, second = fields._pair_indices()
    return nodes[first], nodes[second]


def _looped_time_space_terms(w, reg, a, b, box):
    """The time and space seminorm terms with one increment call per probe."""
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
    from nlyoung.fields import _N_COARSE

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
    ts, xs = np.linspace(0.0, 1.0, 257), np.linspace(-1.0, 1.0, 65)
    a_t, b_t = (make_weierstrass(0.7, 8, phases=list(rng.uniform(0.0, 6.0, 8)))(ts) for _ in range(2))
    rank2 = GridField(ts, xs, a_t[:, None] * xs[None, :] + b_t[:, None] * np.sin(1.3 * xs[None, :] + 0.4))
    return {
        "product": product,
        "diagonal": DiagonalField(product, sample_function(np.cos, -1.0, 1.0, 256)),
        "grid-65x33": small,
        "grid-257x65": large,
        "grid-rank2": rank2,
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


def _pairwise_seminorm_terms(w, reg, a, b, box):
    """The three seminorm terms and the pair count with every term evaluated
    at both ends of every probe pair, as holder_seminorm_field once did: the
    reference that its evaluation on the probe nodes must equal bit for bit."""

    def axis_pairs(lo, hi):
        coarse = np.linspace(lo, hi, 41)
        i, j = np.triu_indices(coarse.size, k=1)
        s, t = [coarse[i]], [coarse[j]]
        fine = np.linspace(lo, hi, 385)
        for lag in range(1, 17):
            idx = np.arange(0, fine.size - lag, 4)
            s.append(fine[idx])
            t.append(fine[idx + lag])
        return np.concatenate(s), np.concatenate(t)

    terms = w.separable_terms()
    ts_s, ts_t = axis_pairs(a, b)
    xs_s, xs_t = axis_pairs(box[0], box[1])
    t_probe = np.linspace(a, b, 41)
    x_probe = np.linspace(box[0], box[1], 41)
    dt_pow = (ts_t - ts_s) ** reg.tau
    dx_pow = (xs_t - xs_s) ** reg.lam
    d_g = np.column_stack([path_diff(g, ts_t, ts_s) / dt_pow for g, _ in terms])
    g_probe = np.column_stack([np.broadcast_to(g(t_probe), t_probe.shape) for g, _ in terms])
    d_h = np.vstack([path_diff(h, xs_t, xs_s) / dx_pow for _, h in terms])
    h_probe = np.vstack([np.broadcast_to(h(x_probe), x_probe.shape) for _, h in terms])
    n_pairs = ts_s.size * xs_s.size + ts_s.size * x_probe.size + xs_s.size * t_probe.size
    product = fields._max_abs_product
    return product(d_g, d_h), product(d_g, h_probe), product(g_probe, d_h), n_pairs


_SERIES = ProductField(make_weierstrass(0.6, 12, base=2.5), make_weierstrass(0.7, 9, phases=[0.3] * 9))
_NODE_MEDIA = {
    **_MEDIA,
    "sin-product": ProductField(make_function("sin:freq=7,phase=0.2"), make_function("cos:freq=3")),
    # the second part's h is negated through fields._Negated
    "series-difference": DifferenceField(_SERIES, ProductField(make_weierstrass(0.8, 10), make_function("sin:freq=2"))),
}


@pytest.mark.parametrize("name", sorted(_NODE_MEDIA))
def test_field_seminorm_node_evaluation_equals_pairwise(name):
    w = _NODE_MEDIA[name]
    reg = Regularity(0.6, 0.8, 0.7)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
    got = (rep.rect_term, rep.time_term, rep.space_term, rep.n_pairs_checked)
    assert got == _pairwise_seminorm_terms(w, reg, 0.0, 1.0, (-1.0, 1.0))


@pytest.mark.parametrize("name", ["product", "grid-257x65"])
def test_field_seminorm_of_self_difference_vanishes(name):
    w = _MEDIA[name]
    reg = Regularity(0.6, 0.8, 0.7)
    rep = holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))
    zero = holder_seminorm_field(DifferenceField(w, w), reg, 0.0, 1.0, (-1.0, 1.0))
    assert zero.rect_term <= 1e-13 * rep.rect_term
    assert zero.time_term <= 1e-13 * rep.time_term
    assert zero.space_term <= 1e-13 * rep.space_term


def _traced_peak(fn):
    """The traced peak of the memory that fn allocates, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_field_seminorm_memory_on_large_grid():
    w = _MEDIA["grid-257x65"]
    reg = Regularity(0.6, 0.8, 0.7)
    assert _traced_peak(lambda: holder_seminorm_field(w, reg, 0.0, 1.0, (-1.0, 1.0))) < 64e6


@pytest.mark.parametrize("route, cap", [("seminorm", 4e6), ("sewing", 3e6)])
def test_grid_data_medium_stays_block_sized(route, cap):
    # the probe products and the midpoints of the last sewing level are
    # taken in cache-sized blocks; the probe products taken whole would hold
    # about 30 MB
    ts, xs, values, phi = _rank2_grid_and_path()
    grid = GridField(ts, xs, values)
    assert len(grid.separable_terms()) == 2
    box = (float(xs[0]), float(xs[-1]))
    runs = {
        "seminorm": lambda: holder_seminorm_field(grid, Regularity(0.7, 1.0, 0.6), 0.0, 1.0, box),
        "sewing": lambda: integrate_sewing(grid, phi, 0.0, 1.0, max_levels=16, tol=0.0),
    }
    assert _traced_peak(runs[route]) < cap


def test_two_term_grid_sewing_memory_at_level_18():
    # the rows carried into the last level, g_k and h_k(phi) for both terms
    # at 2^17 + 1 nodes, 4.2 MB; the last level, 2^18 floats, 2.1 MB; one
    # block of its midpoints, about a dozen arrays of 2^14 floats, 1.6 MB
    ts, xs, values, phi = _rank2_grid_and_path()
    grid = GridField(ts, xs, values)
    assert len(grid.separable_terms()) == 2
    assert _traced_peak(lambda: integrate_sewing(grid, phi, 0.0, 1.0, max_levels=18, tol=0.0)) < 8e6


def test_grid_sewing_sums_bitwise_equal_oracle_germ():
    # a two-term grid sews from its terms' carried nodes: its sums are
    # bitwise those of sum_k (g_k(t_(i+1)) - g_k(t_i)) h_k(phi(t_i)), added in
    # term order, and within rounding of the sums of the oracle germ
    ts, xs, values, phi = _rank2_grid_and_path()
    grid = GridField(ts, xs, values)
    _, trace = integrate_sewing(grid, phi, 0.0, 1.0, max_levels=12, tol=0.0)
    (g0, h0), (g1, h1) = grid.separable_terms()
    want, germ = [], []
    for k in range(13):
        nodes = np.linspace(0.0, 1.0, 2**k + 1)
        x = phi(nodes[:-1])
        level = np.diff(g0(nodes)) * h0(x) + np.diff(g1(nodes)) * h1(x)
        want.append(float(np.sum(level)))
        germ.append(float(np.sum(_where_increment_t(grid, nodes[:-1], nodes[1:], x))))
    assert np.array(trace.sums).tobytes() == np.array(want).tobytes()
    np.testing.assert_allclose(trace.sums, germ, rtol=1e-13)


@pytest.mark.parametrize("inner", [1, 2, 3, 7])
@pytest.mark.parametrize("block", [None, "one", "many"])
def test_max_abs_product_equals_whole_product(inner, block, monkeypatch):
    rng = np.random.RandomState(inner)
    left, right = rng.randn(1000, inner), rng.randn(inner, 613) * 10.0 ** rng.randint(-3, 4, 613)
    left[-1] *= 1e3  # the largest entry lies in the last, short block
    if block == "one":
        monkeypatch.setattr(fields, "_BLOCK_ENTRIES", left.shape[0] * right.shape[1])
    elif block == "many":  # 7 rows a block: 143 blocks, the last one of 6 rows
        monkeypatch.setattr(fields, "_BLOCK_ENTRIES", 7 * right.shape[1] + 5)
    assert fields._max_abs_product(left, right) == np.max(np.abs(left @ right))


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
