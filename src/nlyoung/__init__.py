"""Nonlinear Young integration of Holder media along Holder paths.

Evaluates int_a^b W(dt, phi_t) for jointly Holder-continuous media W and
Holder paths phi by two independent constructions (a four-term fractional
formula and sewing/Riemann-sum limits), together with the classical Young
integral, Weyl fractional operators, iterated integrals over the simplex,
and the scaling-bound diagnostics that go with them.
"""

from .fields import (
    DifferenceField,
    Field,
    FieldHolderReport,
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
from .fraccalc import (
    frac_integral_left,
    frac_integral_right,
    smooth_parts_identity_check,
    weyl_left,
    weyl_right,
)
from .iterated import (
    DiagonalField,
    GrowthParams,
    JointField,
    diagonal_integral,
    growth_check,
    iterated_integral,
)
from .nonlinear import (
    AlphaIndependence,
    BoundCheck,
    Germ,
    IntegralReport,
    SewingTrace,
    alpha_independence,
    centered_bound_check,
    indefinite_integral,
    integrate_fractional,
    integrate_sewing,
    refined_bound_check,
    stability_in_medium,
    stability_in_path,
)
from .paths import (
    HolderReport,
    SampledPath,
    WeierstrassFunction,
    holder_seminorm_path,
    make_function,
    make_weierstrass,
    read_path_csv,
    sample_function,
    write_path_csv,
)
from .quadrature import QuadratureConfig
from .young import YoungResult, young_integral

__version__ = "0.1.0"
