"""Classical Young integral int_a^b f dg through its fractional representation.

For f alpha-Holder and g beta-Holder with alpha + beta > 1 the integral equals

    -int_a^b D^gam_{a+} f(t) * D^{1-gam}_{b-} g_{b-}(t) dt

for every gam in (1 - beta, alpha); the value must not depend on that choice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import RegularityError
from .fraccalc import dl_dr_integral
from .paths import _as_sampled, holder_seminorm_path, sup_norm
from .quadrature import QuadratureConfig

__all__ = ["YoungResult", "young_integral"]

_DEFAULT_CFG = QuadratureConfig(n_outer=768)


@dataclass(frozen=True)
class YoungResult:
    value: float
    gamma_used: float
    error_estimate: float
    bound_ratio: float
    converged: bool = True


def young_integral(
    f,
    g,
    alpha_f: float,
    beta_g: float,
    a: float,
    b: float,
    gamma: float | None = None,
    cfg: QuadratureConfig | None = None,
) -> YoungResult:
    """int_a^b f dg for declared Holder orders alpha_f of f and beta_g of g.

    gamma defaults to the midpoint of the admissible window (1-beta_g,
    alpha_f).  bound_ratio divides |value| by the estimated a-priori bound
    ||g||_beta (||f||_inf (b-a)^beta + ||f||_alpha (b-a)^(alpha+beta)); across
    shrinking intervals these ratios stay below one uniform constant.
    """
    if alpha_f + beta_g <= 1.0:
        raise RegularityError(
            f"need alpha_f + beta_g > 1, got {alpha_f:g} + {beta_g:g}"
        )
    lo, hi = 1.0 - beta_g, alpha_f
    if gamma is None:
        gamma = 0.5 * (lo + hi)
    if not lo < gamma < hi:
        raise RegularityError(f"gamma={gamma:g} outside window ({lo:g}, {hi:g})")
    cfg = cfg or _DEFAULT_CFG
    quad = dl_dr_integral(f, g, gamma, a, b, mu_f=alpha_f, beta_g=beta_g, cfg=cfg)

    f_alpha = holder_seminorm_path(_as_sampled(f, a, b, 1024), alpha_f, a, b).seminorm
    g_beta = holder_seminorm_path(_as_sampled(g, a, b, 1024), beta_g, a, b).seminorm
    f_inf = sup_norm(f, a, b)
    denom = g_beta * (
        f_inf * (b - a) ** beta_g + f_alpha * (b - a) ** (alpha_f + beta_g)
    )
    ratio = abs(quad.value) / denom if denom > 0 else 0.0
    return YoungResult(quad.value, gamma, quad.error_estimate, ratio, quad.converged)
