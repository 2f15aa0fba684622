"""Error estimates calibrated against known answers.

Every medium here is W(t, x) = g(t) h(x) with g a finite cosine series, so
int_a^b W(dt, phi_t) = int_a^b h(phi(t)) g'(t) dt has a smooth integrand that
composite Gauss-Legendre quadrature resolves to float precision.  Each
fractional and Young solve must land within 5 of its own error estimates of
that oracle, over several seeded phase sets.
"""

import math

import numpy as np
import pytest

from nlyoung.fields import ProductField, Regularity
from nlyoung.nonlinear import integrate_fractional
from nlyoung.paths import make_function, make_weierstrass
from nlyoung.quadrature import QuadratureConfig
from nlyoung.young import young_integral

COVER = 5.0  # |value - oracle| allowed, in error estimates

# the six pinned product media (experiments.pinned_combos) and the README
# medium: name, g (H, scales), h (H, scales) or None for the identity,
# phi (H, scales), (tau, lam, gamma); only the phases are drawn
MEDIA = (
    ("wei-e02-lam1", (0.6, 12), None, (0.6, 12), (0.6, 1.0, 0.6)),
    ("wei-e02-lam08", (0.7, 12), (0.8, 10), (0.625, 12), (0.7, 0.8, 0.625)),
    ("wei-e03-lam1", (0.6, 12), None, (0.7, 12), (0.6, 1.0, 0.7)),
    ("wei-e03-steep", (0.75, 12), None, (0.55, 12), (0.75, 1.0, 0.55)),
    ("wei-e05-lam1", (0.8, 12), None, (0.7, 12), (0.8, 1.0, 0.7)),
    ("wei-e05-lam075", (0.9, 12), (0.75, 10), (0.8, 12), (0.9, 0.75, 0.8)),
    ("readme", (0.6, 12), None, (0.7, 12), (0.6, 1.0, 0.7)),
)
PINNED_CFG = QuadratureConfig(n_outer=1024, tol=5e-3)  # the additivity budget
# Phase sets are drawn in the order of perfbench's wei-frac workload (the
# media above, then the Young pair f, g), so seed s here is its seed s.  The
# Young pairs of seeds 5 and 9 are hard cases: an outer mesh coarser than the
# inputs' finest scale misses them by 5 and 22 estimates.
SEEDS = (0, 5, 9)


def _draw(rng, spec):
    if spec is None:
        return make_function("identity")
    H, scales = spec
    return make_weierstrass(H, scales, phases=rng.uniform(0.0, 2.0 * math.pi, scales))


def _cases(seed):
    rng = np.random.default_rng([seed, 0])
    media = [
        (name, _draw(rng, g), _draw(rng, h), _draw(rng, phi), reg)
        for name, g, h, phi, reg in MEDIA
    ]
    return media, (_draw(rng, (0.7, 12)), _draw(rng, (0.6, 12)))


def _derivative(w):
    k = np.arange(w.scales)
    amps, freqs = w.base ** (-w.H * k), w.base**k
    return lambda t: -sum(a * f * np.sin(f * t + p) for a, f, p in zip(amps, freqs, w.phases))


def oracle(g, h, phi, a=0.0, b=1.0, panels=2048):
    """int_a^b h(phi(t)) g'(t) dt by 32-point composite Gauss-Legendre."""
    x, wts = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x[None, :]
    return float(np.sum(half * wts * h(phi(t)) * _derivative(g)(t)))


def test_oracle_resolves_the_series():
    # halving the panels moves the oracle by rounding only
    f, g = _cases(0)[1]
    ident = make_function("identity")
    assert oracle(g, ident, f, panels=1024) == pytest.approx(oracle(g, ident, f), abs=1e-13)


@pytest.mark.parametrize("seed", SEEDS)
def test_fractional_within_estimates(seed):
    for name, g, h, phi, reg in _cases(seed)[0]:
        cfg = None if name == "readme" else PINNED_CFG
        rep = integrate_fractional(ProductField(g, h), phi, Regularity(*reg), 0.0, 1.0, cfg, with_bounds=False)
        err = abs(rep.value - oracle(g, h, phi))
        assert err <= COVER * rep.error_estimate, (name, rep.value, err, rep.error_estimate)


@pytest.mark.parametrize("seed", SEEDS)
def test_young_within_estimates(seed):
    f, g = _cases(seed)[1]
    res = young_integral(f, g, 0.7, 0.6, 0.0, 1.0)
    err = abs(res.value - oracle(g, make_function("identity"), f))
    assert err <= COVER * res.error_estimate, (res.value, err, res.error_estimate)
