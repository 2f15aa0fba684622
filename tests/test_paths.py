import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlyoung.paths import (
    HolderReport,
    SampledPath,
    _pair_schedule,
    holder_seminorm_path,
    make_function,
    make_weierstrass,
    read_path_csv,
    sample_function,
    sample_uniform,
    write_path_csv,
)


def test_sampled_path_invariants():
    with pytest.raises(ValueError):
        SampledPath([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledPath([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SampledPath([0.0, 1.0], [1.0, np.nan])


def test_evaluation_and_domain_error():
    p = SampledPath([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    assert p(0.5) == 0.5
    assert p(1.5) == 2.5
    with pytest.raises(ValueError):
        p(2.5)
    with pytest.raises(ValueError):
        p(np.array([-0.1, 0.5]))


def test_diff_matches_subtraction_and_is_exact_in_cell():
    p = sample_function(np.sin, 0.0, 1.0, 64)
    t = np.linspace(0.1, 0.9, 33)
    s = t - 0.07
    np.testing.assert_allclose(p.diff(t, s), p(t) - p(s), atol=1e-14)
    # same-cell difference reduces to slope * (t - s) exactly
    t0, s0 = 0.5004, 0.5001
    slope = (p.values[33] - p.values[32]) / (p.ts[33] - p.ts[32])
    assert p.diff(t0, s0) == slope * (t0 - s0)


def test_holder_seminorm_linear_path():
    p = sample_function(lambda t: np.asarray(t, dtype=float), 0.0, 1.0, 1024)
    rep = holder_seminorm_path(p, 1.0, 0.0, 1.0)
    assert rep.seminorm == pytest.approx(1.0, abs=1e-12)
    assert rep.n_pairs_checked > 500_000


def test_holder_seminorm_sqrt_graded():
    k = np.arange(1025)
    ts = (k / 1024.0) ** 2
    ts[0] = 0.0
    p = SampledPath(np.unique(ts), np.sqrt(np.unique(ts)))
    rep = holder_seminorm_path(p, 0.5, 0.0, 1.0)
    assert rep.seminorm == pytest.approx(1.0, abs=1e-12)


def test_holder_seminorm_recompute_at_arg_pair():
    w = make_weierstrass(0.7, 12)
    p = sample_function(w, 0.0, 1.0, 1024)
    rep = holder_seminorm_path(p, 0.7, 0.0, 1.0)
    s, t = rep.arg_pair
    assert abs(p(t) - p(s)) / (t - s) ** 0.7 == rep.seminorm


def test_holder_seminorm_weierstrass_stable_under_doubling():
    w = make_weierstrass(0.7, 12)
    r1 = holder_seminorm_path(sample_function(w, 0.0, 1.0, 1024), 0.7, 0.0, 1.0)
    r2 = holder_seminorm_path(sample_function(w, 0.0, 1.0, 2048), 0.7, 0.0, 1.0)
    assert r1.seminorm > 0
    assert abs(r2.seminorm - r1.seminorm) <= 0.10 * r1.seminorm


def test_holder_seminorm_monotone_in_interval():
    w = make_weierstrass(0.6, 10)
    p = sample_function(w, 0.0, 1.0, 1024)
    full = holder_seminorm_path(p, 0.6, 0.0, 1.0).seminorm
    sub = holder_seminorm_path(p, 0.6, 0.2, 0.7).seminorm
    assert full >= sub


def test_holder_seminorm_scaling_covariance():
    w = make_weierstrass(0.6, 10)
    p = sample_function(w, 0.0, 1.0, 512)
    base = holder_seminorm_path(p, 0.6, 0.0, 1.0).seminorm
    for c in (2.0, 0.5, -4.0):  # exact binary scalings
        q = SampledPath(p.ts, c * p.values)
        assert holder_seminorm_path(q, 0.6, 0.0, 1.0).seminorm == abs(c) * base


def _holder_seminorm_oracle(p, exponent, a, b):
    """Every probed pair's ratio, one lag at a time, kept first in (lag, index)
    order: the reference holder_seminorm_path must equal bit for bit."""
    r = p.restricted(a, b)
    ts, vals = r.ts, r.values
    best, best_pair, n_pairs = -1.0, (float(ts[0]), float(ts[-1])), 0
    for lag in _pair_schedule(ts.size):
        dt = ts[lag:] - ts[:-lag]
        ratios = np.abs(vals[lag:] - vals[:-lag]) / dt**exponent
        n_pairs += ratios.size
        m = int(np.argmax(ratios))
        if ratios[m] > best:
            best = float(ratios[m])
            best_pair = (float(ts[m]), float(ts[m + lag]))
    return HolderReport(best, exponent, best_pair, n_pairs)


def _probe_path(kind, n, stamps, seed):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n)
    if stamps != "uniform":
        # "random": gaps within a factor 40; "wide": gaps from 1e-6 to 1
        gaps = rng.uniform(0.05, 2.0, n - 1) if stamps == "random" else 10.0 ** rng.uniform(-6.0, 0.0, n - 1)
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        ts /= ts[-1]
    if kind == "walk":
        vals = np.cumsum(rng.standard_normal(n))
    elif kind == "weierstrass":
        w = make_weierstrass(rng.uniform(0.2, 0.9), 12, phases=list(rng.uniform(0.0, 6.0, 12)))
        vals = w(ts)
    elif kind == "steps":
        vals = np.repeat(rng.standard_normal(n // 8 + 1), 8)[:n]
    elif kind == "const":
        vals = np.full(n, 2.0)
    elif kind == "linear":
        vals = ts.copy()
    else:
        vals = np.sqrt(ts)
    return SampledPath(ts, vals)


# The first three examples are the inputs where pairs tie, so every lag stays
# in play; the next two probe more than 2048 samples in a window and in all.
# The last three are where the gap-sum bounds on the spans are loosest: a
# window cut just past a sample (its last gap 1e-9), gaps spanning 1e-6 to 1
# at a small exponent, and 20,001 samples on the lag schedule.
@settings(derandomize=True, deadline=None, max_examples=40)
@example(kind="const", n=1025, stamps="uniform", exponent=0.5, window=None, seed=0)
@example(kind="linear", n=1025, stamps="uniform", exponent=1.0, window=None, seed=0)
@example(kind="sqrt", n=1025, stamps="uniform", exponent=0.5, window=None, seed=0)
@example(kind="walk", n=3001, stamps="random", exponent=0.4, window=(0.1, 0.9), seed=1)
@example(kind="weierstrass", n=2049, stamps="uniform", exponent=0.7, window=None, seed=2)
@example(kind="weierstrass", n=1025, stamps="uniform", exponent=0.6, window=(0.1, 0.75 + 1e-9), seed=3)
@example(kind="walk", n=2048, stamps="wide", exponent=0.05, window=None, seed=4)
@example(kind="weierstrass", n=20_001, stamps="uniform", exponent=0.7, window=None, seed=5)
@given(
    kind=st.sampled_from(["walk", "weierstrass", "steps", "const", "linear", "sqrt"]),
    n=st.one_of(st.integers(2, 400), st.sampled_from([1025, 2048, 2049, 3001])),
    stamps=st.sampled_from(["uniform", "random", "wide"]),
    exponent=st.one_of(st.floats(0.05, 1.0), st.sampled_from([0.5, 1.0])),
    window=st.one_of(st.none(), st.tuples(st.floats(0.05, 0.4), st.floats(0.6, 0.95))),
    seed=st.integers(0, 2**16),
)
def test_holder_seminorm_equals_all_pairs_oracle(kind, n, stamps, exponent, window, seed):
    p = _probe_path(kind, n, stamps, seed)
    a, b = window or (0.0, 1.0)
    got = holder_seminorm_path(p, exponent, a, b)
    want = _holder_seminorm_oracle(p, exponent, a, b)
    assert got.seminorm == want.seminorm
    assert got.arg_pair == want.arg_pair
    assert got.n_pairs_checked == want.n_pairs_checked
    m = p.restricted(a, b).ts.size
    assert got.n_pairs_checked == sum(m - lag for lag in _pair_schedule(m))


def test_holder_seminorm_argument_errors():
    p = sample_function(np.sin, 0.0, 1.0, 64)
    with pytest.raises(ValueError):
        holder_seminorm_path(p, 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        holder_seminorm_path(p, 0.5, -1.0, 1.0)


def test_weierstrass_determinism_and_values():
    w1 = make_weierstrass(0.5, 2, base=2.0)
    w2 = make_weierstrass(0.5, 2, base=2.0)
    ts = np.linspace(0, 1, 257)
    assert np.array_equal(w1(ts), w2(ts))
    assert w1(0.0) == pytest.approx(1.0 + 2.0**-0.5, abs=1e-15)
    single = make_weierstrass(0.3, 1)
    assert single(0.0) == 1.0
    assert single(0.7) == pytest.approx(math.cos(0.7), abs=1e-15)


@pytest.mark.parametrize(
    "t", [0.37, np.linspace(-3.0, 3.0, 1001), np.linspace(0.0, 10.0, 4 * 70).reshape(4, 70)]
)
def test_weierstrass_in_place_sum_bitwise_equals_direct_sum(t):
    w = make_weierstrass(0.6, 12, base=3.0, phases=[0.1 + 0.7 * k for k in range(12)])
    arr = np.asarray(t, dtype=float)
    direct = np.zeros_like(arr)
    for amp, freq, phase in zip(w._amps, w._freqs, w.phases):
        direct += amp * np.cos(freq * arr + phase)
    got = w(t)
    assert np.shape(got) == np.shape(t)
    np.testing.assert_array_equal(got, direct)


def _grid_bound(w, ts):
    """The evaluators' accuracy contract c * eps * sum_k A_k (1 + F_k max|t| + |p_k|).

    c = 3: against an extended-precision reference, a base-2 call reaches 2.8
    of the c = 1 bound over 400 drawn series (1-40 scales, H in 0.05-0.95,
    zero or drawn phases, t from 1e-9 to 1e6), and the two evaluators differ
    by at most the sum of their errors.  The |p_k| term is the rounding of the
    cosine's argument F_k t + p_k where F_k |t| is small."""
    spread = 1.0 + w._freqs * np.max(np.abs(ts)) + np.abs(w.phases)
    return 3.0 * np.finfo(float).eps * float(np.sum(w._amps * spread))


def _longdouble_at(w, t):
    t = np.asarray(t, dtype=np.longdouble)
    out = np.zeros(t.shape, dtype=np.longdouble)
    for amp, freq, phase in zip(w._amps, w._freqs, w.phases):
        out += np.longdouble(amp) * np.cos(np.longdouble(freq) * t + np.longdouble(phase))
    return out


def _longdouble_reference(w, start, step, count):
    t = np.longdouble(start) + np.arange(count, dtype=np.longdouble) * np.longdouble(step)
    return _longdouble_at(w, t), t


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
@pytest.mark.parametrize("base", [2.0, 3.0, 2.5])
@pytest.mark.parametrize(
    "start, stop, count",
    [(0.0, 1.0, 1), (0.0, 1.0, 2), (-1.3, 0.7, 1000), (-3.0, -2.0, 4097), (0.1, 0.9, 2**18 + 1)],
)
def test_weierstrass_on_grid_within_contract_of_extended_reference(base, start, stop, count):
    phases = list(np.random.default_rng(count).uniform(0.0, 2.0 * np.pi, 20))
    w = make_weierstrass(0.6, 20, base=base, phases=phases)
    step = (stop - start) / max(count - 1, 1)
    want, t = _longdouble_reference(w, start, step, count)
    bound = _grid_bound(w, t)
    got = w.on_grid(start, step, count)
    assert got.shape == (count,)
    assert float(np.max(np.abs(got - want))) <= bound
    # the bound is the one calling the function meets at the same nodes
    assert float(np.max(np.abs(w(start + np.arange(count) * step) - want))) <= bound


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
@pytest.mark.parametrize("scales", [20, 40])
@pytest.mark.parametrize("phased", [False, True])
@pytest.mark.parametrize("H", [0.05, 0.3, 0.6])
@pytest.mark.parametrize("start, stop", [(0.0, 1e-3), (1e-9, 1e-7), (-1e-5, 1e-5)])
def test_weierstrass_base2_call_within_contract_near_zero(start, stop, H, phased, scales):
    # a base-2 call reaches scale k by k angle doublings from t, so the
    # roundings made while the angle is small grow 2^k-fold by scale k,
    # and the fine scales' amplitudes are nearly 1 at small H.  Zero phases
    # leave the bound no |p_k| term.  The points span two of the call's
    # blocks of 8,192, each starting its doublings afresh.
    count = 3 * 4096 + 5
    phases = list(np.random.default_rng(count).uniform(0.0, 2.0 * np.pi, scales)) if phased else None
    w = make_weierstrass(H, scales, base=2.0, phases=phases)
    t = np.linspace(start, stop, count)
    got = w(t)
    assert float(np.max(np.abs(got - _longdouble_at(w, t)))) <= _grid_bound(w, t)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
@pytest.mark.parametrize("scales", [52, 53, 60, 64])
@pytest.mark.parametrize("start, stop", [(0.5, 1.0), (-2.0, 2.0)])
def test_weierstrass_base2_call_within_contract_at_many_scales(start, stop, scales):
    # at scale k the doublings' modulus error is about 2^k eps for |t| >= 1/2;
    # past 52 scales it would near 1 and the doubling would square it to
    # overflow, so such a series takes the cosine loop instead
    phases = list(np.random.default_rng(scales).uniform(0.0, 2.0 * np.pi, scales))
    w = make_weierstrass(0.5, scales, base=2.0, phases=phases)
    t = np.linspace(start, stop, 4097)
    got = w(t)
    assert float(np.max(np.abs(got - _longdouble_at(w, t)))) <= _grid_bound(w, t)


@pytest.mark.parametrize("base", [2.0, 2.5])
def test_weierstrass_call_value_does_not_depend_on_the_array(base):
    w = make_weierstrass(0.6, 6, base=base, phases=[0.1 + 0.7 * k for k in range(6)])
    t = np.random.default_rng(3).uniform(-3.0, 3.0, 3 * 4096 + 5)
    got = w(t)
    assert np.array_equal(got, [w(x) for x in t])
    assert np.array_equal(got, np.concatenate([w(t[i:i + 1]) for i in range(t.size)]))
    rows = got[:3 * 4096].reshape(96, 128)
    assert np.array_equal(w(t[:3 * 4096].reshape(96, 128)), rows)
    assert np.array_equal(w(t[:3 * 4096].reshape(96, 128).T), rows.T)


@settings(derandomize=True, deadline=None, max_examples=60)
@example(H=0.5, scales=1, base=2.0, phase=4.0, start=0.0, step=1e-6, count=156)
@given(
    H=st.floats(0.05, 0.95),
    scales=st.integers(1, 20),
    base=st.floats(2.0, 4.0),
    phase=st.floats(-7.0, 7.0),
    start=st.floats(-5.0, 5.0),
    step=st.floats(1e-6, 0.1),
    count=st.integers(1, 3000),
)
def test_weierstrass_on_grid_matches_call(H, scales, base, phase, start, step, count):
    w = make_weierstrass(H, scales, base=base, phases=[phase * (k + 1) for k in range(scales)])
    ts = start + np.arange(count) * step
    got = w.on_grid(start, step, count)
    assert float(np.max(np.abs(got - w(ts)))) <= _grid_bound(w, ts)


def test_weierstrass_on_grid_repeats_bitwise():
    w = make_weierstrass(0.7, 12, base=3.0, phases=[0.4 * k for k in range(12)])
    first = w.on_grid(-0.3, 1.0 / 4096, 2**17 + 3)
    assert np.array_equal(first, w.on_grid(-0.3, 1.0 / 4096, 2**17 + 3))


def test_sample_uniform_calls_plain_callables_on_the_given_nodes():
    seen = []

    def spy(t):
        seen.append(t)
        return np.sin(t)

    ts = np.arange(1, 64, 2) * (1.0 / 64) + 0.25
    got = sample_uniform(spy, ts, 2.0 / 64)
    assert len(seen) == 1 and seen[0] is ts
    assert np.array_equal(got, np.sin(ts))
    w = make_weierstrass(0.6, 12)
    assert np.array_equal(sample_uniform(w, ts, 2.0 / 64), w.on_grid(ts[0], 2.0 / 64, ts.size))


def test_weierstrass_argument_errors():
    with pytest.raises(ValueError):
        make_weierstrass(1.2, 4)
    with pytest.raises(ValueError):
        make_weierstrass(0.5, 0)
    with pytest.raises(ValueError):
        make_weierstrass(0.5, 4, base=1.5)


def test_weierstrass_seminorm_stable_under_probe_doubling():
    w = make_weierstrass(0.7, 12)
    r1 = holder_seminorm_path(sample_function(w, 0.0, 1.0, 1000), 0.7, 0.0, 1.0)
    r2 = holder_seminorm_path(sample_function(w, 0.0, 1.0, 2000), 0.7, 0.0, 1.0)
    assert abs(r2.seminorm - r1.seminorm) <= 0.10 * max(r1.seminorm, r2.seminorm)


def test_descriptor_functions():
    assert make_function("identity")(0.25) == 0.25
    assert make_function("const:c=3")(np.array([1.0, 2.0])).tolist() == [3.0, 3.0]
    assert make_function("monomial:p=2")(3.0) == 9.0
    assert make_function("sin")(0.5) == pytest.approx(math.sin(0.5))
    w = make_function("weierstrass:H=0.7,scales=12,base=2")
    assert w.descriptor == "weierstrass:H=0.7,scales=12,base=2"
    with pytest.raises(ValueError):
        make_function("spline:k=3")


@pytest.mark.parametrize(
    "desc",
    [
        "sin:freq=nan", "sin:phase=inf", "cos:freq=-inf", "cos:phase=nan", "const:c=inf",
        "const:c=nan", "linear:slope=nan", "linear:intercept=-inf", "monomial:p=nan",
        "monomial:p=inf", "weierstrass:H=nan,scales=3", "weierstrass:H=0.6,scales=3,base=inf",
        "weierstrass:H=0.6,scales=3,base=nan", "weierstrass:H=0.6,scales=3,phases=0|nan|1",
        "weierstrass:H=0.6,scales=2,phases=inf|0", "monomial", "weierstrass:H=0.6", "weierstrass:scales=3",
    ],
)
def test_descriptor_rejects_non_finite_or_missing_parameters(desc):
    with pytest.raises(ValueError, match="finite|must lie|needs"):
        make_function(desc)


def test_csv_round_trip(tmp_path):
    p = sample_function(np.cos, 0.0, 2.0, 37)
    fn = tmp_path / "path.csv"
    write_path_csv(fn, p)
    q = read_path_csv(fn)
    assert np.array_equal(p.ts, q.ts)
    assert np.array_equal(p.values, q.values)
    assert fn.read_text().splitlines()[0] == "t,value"


def test_finest_frequency_of_every_kind():
    # the cells per unit length a uniform grid needs: 2 |freq| for sin and cos,
    # as base**scales is for a base-2 series, none for the scale-free kinds
    kinds = {
        "identity": 0.0, "const:c=2": 0.0, "linear:slope=3": 0.0, "monomial:p=2": 0.0, "sqrt": 0.0,
        "sin:freq=-40": 80.0, "cos:freq=7,phase=1": 14.0, "weierstrass:H=0.6,scales=12": 4096.0,
        "weierstrass:H=0.6,scales=3,base=3": 27.0,
    }
    for desc, want in kinds.items():
        assert make_function(desc).finest_frequency == want, desc
    assert SampledPath(np.array([0.0, 0.25, 0.3, 1.0]), np.zeros(4)).finest_frequency == pytest.approx(20.0)
