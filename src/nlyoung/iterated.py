"""Iterated nonlinear Young integrals over the simplex.

The n-fold integral of jointly Holder media F_1..F_n against a density rho is
built stage by stage: stage one integrates rho against the diagonal of F_1,

    I1(s) = int_a^s rho(r) F_1(dr, r),

and stage k+1 integrates the previous stage path as the density of F_(k+1),

    I(k+1)(s) = int_a^s Ik(r) F_(k+1)(dr, r).

Each diagonal integral is the nonlinear Young integral of the weighted medium
G(s, t) = density(t) F(s, t) along the identity path; G-increments are
assembled from density differences and F-increments in a two-term split so
the Holder cancellation survives.  In the degenerate case rho = 1 and
F_i(s, t) = f(s) the construction telescopes to (f(b) - f(a))^n / n!.

A "spatial" variant is also provided, in which stage k+1 composes the spatial
argument instead: I(k+1)(s) = int_a^s F_(k+1)(dr, Ik(r)).  The two variants
agree for media that are linear in the spatial slot but differ in general;
the factorial identity singles out the staged-density form as the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, Regularity, RegularityError
from .nonlinear import Germ, IntegralReport, integrate_fractional, integrate_sewing
from .paths import SampledPath, path_diff
from .quadrature import QuadratureConfig
from .regression import lag_scaling_slope, ls_slope

__all__ = [
    "JointField",
    "DiagonalField",
    "GrowthParams",
    "diagonal_integral",
    "IteratedResult",
    "iterated_integral",
    "GrowthResult",
    "growth_check",
]


def _identity(t):
    return np.asarray(t, dtype=float) + 0.0


@dataclass(frozen=True)
class JointField:
    """A medium on [a,b] x [a,b] with declared joint Holder exponents."""

    field: Field
    tau: float
    lam: float


class _Weighted:
    """x -> density(x) h(x), differenced like DiagonalField.increment_x."""

    def __init__(self, density, h) -> None:
        self.density = density
        self.h = h

    def __call__(self, x):
        return np.asarray(self.density(x)) * self.h(x)

    def diff(self, y, x):
        return np.asarray(self.density(x)) * path_diff(self.h, y, x) + np.asarray(
            path_diff(self.density, y, x)
        ) * self.h(y)


class DiagonalField(Field):
    """G(s, t) = density(t) * F(s, t), the weighted medium of a diagonal integral.

    Rectangular increments split into density * F-rectangle plus
    density-difference * F-time-increment, so each factor keeps its own
    Holder smallness.  Each separable term (g, h) of F gives the term
    (g, density * h) of G, whose h-differences split the same way.
    """

    def __init__(self, base: Field, density) -> None:
        self.base = base
        self.density = density
        dd = getattr(density, "descriptor", "rho")
        self.descriptor = f"diagonal:F=({base.descriptor}),rho=({dd})"

    def eval(self, t, x):
        return np.asarray(self.density(x)) * self.base.eval(t, x)

    def increment_t(self, s, t, x):
        return np.asarray(self.density(x)) * self.base.increment_t(s, t, x)

    def increment_x(self, t, x, y):
        # G(t,y) - G(t,x) = rho(x) [F(t,y)-F(t,x)] + (rho(y)-rho(x)) F(t,y)
        return np.asarray(self.density(x)) * self.base.increment_x(t, x, y) + np.asarray(
            path_diff(self.density, y, x)
        ) * self.base.eval(t, y)

    def increment_rect(self, s, t, x, y):
        return np.asarray(self.density(x)) * self.base.increment_rect(
            s, t, x, y
        ) + np.asarray(path_diff(self.density, x, y)) * self.base.increment_t(t, s, y)

    def separable_terms(self):
        terms = self.base.separable_terms()
        if terms is None:
            return None
        return [(g, _Weighted(self.density, h)) for g, h in terms]


@dataclass(frozen=True)
class GrowthParams:
    """Exponent bookkeeping for the iterated-integral growth bound.

    beta = (lam + tau - 1)/lam and the level exponents satisfy ell_1 =
    tau + lam, ell_(n+1) = 1 + beta * ell_n, with the closed form
    (beta^(n-1) - 1)/(beta - 1) + beta^(n-1) (tau + lam).
    """

    tau: float
    lam: float

    def __post_init__(self) -> None:
        if self.tau + self.lam <= 1.0:
            raise RegularityError("growth exponents need tau + lam > 1")

    @property
    def beta(self) -> float:
        return (self.lam + self.tau - 1.0) / self.lam

    def ell(self, n: int) -> float:
        if n < 1:
            raise ValueError("level must be >= 1")
        beta = self.beta
        if math.isclose(beta, 1.0, rel_tol=0.0, abs_tol=1e-12):
            geom = float(n - 1)
        else:
            geom = (beta ** (n - 1) - 1.0) / (beta - 1.0)
        return geom + beta ** (n - 1) * (self.tau + self.lam)

    def target(self, n: int, fraction: float = 0.9) -> float:
        """A growth exponent strictly below ell_n to test against."""
        return fraction * self.ell(n)


def diagonal_integral(
    joint: JointField,
    rho,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    method: str = "fractional",
) -> IntegralReport:
    """int_a^b rho(s) F(ds, s): the nonlinear integral of the weighted medium
    G(s,t) = rho(t) F(s,t) along the identity path."""
    reg = Regularity(joint.tau, joint.lam, 1.0)
    reg.require_admissible()
    g_field = DiagonalField(joint.field, rho)
    if method == "fractional":
        return integrate_fractional(g_field, _identity, reg, a, b, cfg, with_bounds=False)
    if method == "sewing":
        report, _ = integrate_sewing(g_field, _identity, a, b)
        return report
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# staged iterated integrals


def _stage_path(germ, a: float, b: float, n_points: int, fine_level: int):
    """Indefinite integral of a germ on a uniform grid via cumulative sums.

    Computes partial Riemann sums at three nested dyadic levels and
    Richardson-extrapolates per node with the order fitted at the endpoint.
    Returns (SampledPath, endpoint error estimate).
    """
    m_out = n_points - 1
    if m_out & (m_out - 1):
        raise ValueError("n_points - 1 must be a power of two")
    level_out = int(math.log2(m_out))
    fine = max(fine_level, level_out + 2)
    n_fine = 2**fine
    ts = np.linspace(a, b, n_fine + 1)

    def partials(step: int) -> np.ndarray:
        left = ts[:-step:step]
        right = ts[step::step]
        inc = np.asarray(germ(left, right), dtype=float)
        return np.concatenate([[0.0], np.cumsum(inc)])

    stride = n_fine // m_out
    p_fine = partials(1)[::stride]
    p_mid = partials(2)[:: stride // 2]
    p_coarse = partials(4)[:: stride // 4]

    d1 = p_mid[-1] - p_coarse[-1]
    d2 = p_fine[-1] - p_mid[-1]
    values = p_fine
    err = abs(d2)
    if d1 != 0.0 and d2 != 0.0:
        order = math.log2(abs(d1) / abs(d2))
        if 0.05 <= order <= 4.0:
            values = p_fine + (p_fine - p_mid) / (2.0**order - 1.0)
            err = abs(values[-1] - p_fine[-1])
    out_ts = np.linspace(a, b, n_points)
    return SampledPath(out_ts, values), float(err)


@dataclass(frozen=True)
class IteratedResult:
    value: float
    stage_paths: tuple
    stage_exponents: tuple
    error_estimate: float
    method: str
    variant: str


def iterated_integral(
    fields,
    rho,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    n_points: int = 513,
    fine_level: int = 13,
    method: str = "sewing",
    variant: str = "diagonal",
    check_stage_regularity: bool = True,
) -> IteratedResult:
    """n-fold iterated integral of JointFields F_1..F_n against density rho.

    Stage paths are materialized on n_points uniform samples (n_points - 1 a
    power of two) from cumulative germ sums on a finer dyadic grid; stage
    k+1 consumes stage k through linear interpolation.  method selects how
    the final value is produced: "sewing" reads the last stage path at b,
    "fractional" re-evaluates the last stage with the four-term formula
    (integrate_fractional, through the medium's separable terms).
    variant="spatial" switches to the composed-argument recursion (see module
    doc).
    """
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    if variant not in ("diagonal", "spatial"):
        raise ValueError(f"unknown variant {variant!r}")
    if method not in ("sewing", "fractional"):
        raise ValueError(f"unknown method {method!r}")

    carrier = rho
    stage_paths = []
    stage_exponents = []
    err_total = 0.0
    for k, joint in enumerate(fields):
        reg = Regularity(joint.tau, joint.lam, 1.0)
        reg.require_admissible()
        if variant == "diagonal":
            germ = Germ(DiagonalField(joint.field, carrier), _identity)
        else:
            germ = Germ(joint.field, carrier)
        path, err = _stage_path(germ, a, b, n_points, fine_level)
        err_total += err
        exponent = _estimated_exponent(path)
        stage_exponents.append(exponent)
        if check_stage_regularity and k + 1 < len(fields) and exponent is not None:
            nxt = fields[k + 1]
            eff_lam = min(nxt.lam, exponent + 0.1)
            if nxt.tau + eff_lam <= 1.0:
                raise RegularityError(
                    f"stage {k + 1} path exponent ~{exponent:.2f} too low for the "
                    f"next medium (tau={nxt.tau:g}, lam={nxt.lam:g})"
                )
        stage_paths.append(path)
        carrier = path

    value = float(stage_paths[-1].values[-1])
    if method == "fractional":
        joint = fields[-1]
        reg = Regularity(joint.tau, joint.lam, 1.0)
        dens = rho if len(fields) == 1 else stage_paths[-2]
        if variant == "diagonal":
            g_field = DiagonalField(joint.field, dens)
            rep = integrate_fractional(g_field, _identity, reg, a, b, cfg, with_bounds=False)
        else:
            rep = integrate_fractional(joint.field, dens, reg, a, b, cfg, with_bounds=False)
        value = rep.value
        err_total += rep.error_estimate
    return IteratedResult(
        value, tuple(stage_paths), tuple(stage_exponents), err_total, method, variant
    )


def _estimated_exponent(path: SampledPath):
    try:
        slope, _, _ = lag_scaling_slope(path.ts, path.values)
    except ValueError:
        return None  # flat path: no resolvable increments
    return float(slope)


# ---------------------------------------------------------------------------
# growth across scales


@dataclass(frozen=True)
class GrowthResult:
    scales: np.ndarray
    values: np.ndarray
    ratios: np.ndarray
    slope: float


def growth_check(
    fields,
    rho,
    a: float,
    scales,
    gamma_n: float,
    cfg: QuadratureConfig | None = None,
    n_points: int = 257,
    fine_level: int = 12,
) -> GrowthResult:
    """|I_(a, a+h)| across interval lengths h against the target h^gamma_n.

    Requires rho(a) = 0.  The slope is the least-squares trend of
    log(|I|/h^gamma_n) against log h; nonnegative slope (within tolerance)
    means the ratios stay bounded as h shrinks, i.e. the growth exponent
    gamma_n is admissible.
    """
    rho_a = float(rho(np.asarray([a]))[0]) if callable(rho) else float(rho(a))
    if abs(rho_a) > 1e-10:
        raise ValueError(f"growth check requires rho(a) = 0, got {rho_a:g}")
    scales = np.asarray(sorted(scales, reverse=True), dtype=float)
    values = []
    for h in scales:
        res = iterated_integral(
            fields, rho, a, a + float(h), cfg, n_points, fine_level,
            check_stage_regularity=False,
        )
        values.append(res.value)
    values = np.asarray(values)
    ratios = np.abs(values) / scales**gamma_n
    resolvable = np.abs(values) > 1e-14
    if resolvable.sum() >= 2:
        slope = ls_slope(np.log(scales[resolvable]), np.log(ratios[resolvable]))
    else:
        slope = 0.0  # every value at the roundoff floor: nothing grows
    return GrowthResult(scales, values, ratios, slope)
