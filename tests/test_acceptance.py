"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.  Criteria with a stated runtime budget assert it.
"""

import math
import time
from math import gamma

import numpy as np

from nlyoung.experiments import (
    additivity_study,
    alpha_specs,
    centered_bound_study,
    indefinite_study,
    iterated_study,
    pinned_combos,
    reduction_specs,
    refined_bound_study,
    run,
    sewing_order_study,
    stability_study,
)
from nlyoung.fraccalc import smooth_parts_identity_check, weyl_left
from nlyoung.quadrature import QuadratureConfig


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_c01_linear_reduction():
    t0 = time.time()
    worst = 0.0
    for spec in reduction_specs():
        rep = run(spec)
        target = spec.tolerances["expected_value"]
        err = abs(rep.reports["fractional"]["value"] - target) / abs(target)
        worst = max(worst, err)
        assert rep.passed, rep.checks
    elapsed = time.time() - t0
    _report(
        "criterion-01 linear reduction",
        worst <= 1e-4 and elapsed < 10.0,
        f"worst relative error {worst:.2e} (tol 1e-4), runtime {elapsed:.1f}s < 10s",
    )


def test_c02_cross_method_agreement():
    t0 = time.time()
    worst_rel, worst_factor = 0.0, 0.0
    for spec in pinned_combos():
        rep = run(spec)
        diff = rep.comparisons["cross_method_diff"]
        esum = rep.comparisons["cross_method_error_sum"]
        scale = max(
            abs(rep.reports["fractional"]["value"]),
            abs(rep.reports["sewing"]["value"]),
        )
        worst_rel = max(worst_rel, diff / scale)
        worst_factor = max(worst_factor, diff / esum)
        assert rep.passed, (spec.name, rep.checks)
    elapsed = time.time() - t0
    _report(
        "criterion-02 cross-method agreement",
        worst_factor <= 5.0 and worst_rel <= 0.02 and elapsed < 120.0,
        f"max |frac-sewing| = {worst_factor:.2f}x estimates, {worst_rel:.2%} relative, "
        f"runtime {elapsed:.0f}s < 120s",
    )


def test_c03_alpha_independence():
    t0 = time.time()
    worst = 0.0
    for spec in alpha_specs():
        rep = run(spec)
        factor = rep.comparisons["alpha_spread"] / max(
            rep.checks[-1]["limit"] / 20.0, 1e-300
        )
        worst = max(worst, factor)
        assert rep.passed, (spec.name, rep.checks)
    elapsed = time.time() - t0
    _report(
        "criterion-03 alpha independence",
        worst <= 20.0 and elapsed < 180.0,
        f"worst spread = {worst:.1f}x max error estimate (limit 20x), "
        f"runtime {elapsed:.0f}s < 180s",
    )


def test_c04_sewing_convergence_order():
    t0 = time.time()
    combo = pinned_combos()[2]  # tau + lam*gamma = 1.3
    rep = sewing_order_study(combo, lo=8, hi=14, min_order=0.2)
    order = rep.comparisons["fitted_order"]
    elapsed = time.time() - t0
    _report(
        "criterion-04 sewing order",
        rep.passed and elapsed < 60.0,
        f"empirical order {order:.3f} >= 0.2 on levels 8-14, runtime {elapsed:.1f}s < 60s",
    )


def test_c05_additivity():
    from dataclasses import replace

    worst = 0.0
    for combo in pinned_combos():
        spec = replace(combo, quad={"n_outer": 1024, "tol": 5e-3})
        rep = additivity_study(spec)
        for chk in rep.checks:
            worst = max(worst, chk["observed"] / max(chk["limit"], 1e-300))
        assert rep.passed, (combo.name, [c for c in rep.checks if not c["passed"]])
    _report(
        "criterion-05 additivity",
        worst <= 1.0,
        f"worst |int_ab - int_ac - int_cb| = {worst:.2f}x combined error estimates",
    )


def test_c06_indefinite_holder_slope():
    combo = pinned_combos()[2]  # tau = 0.6
    rep = indefinite_study(combo, n_points=513, slope_window=0.15)
    slope = rep.comparisons["regression_slope"]
    _report(
        "criterion-06 indefinite Holder continuity",
        rep.passed,
        f"regression slope {slope:.3f} within 0.6 +/- 0.15 on 513 points",
    )


def test_c07_centered_bound_uniformity():
    from dataclasses import replace

    combo = replace(pinned_combos()[2], quad={"n_outer": 512, "tol": 5e-3})
    rep, rows = centered_bound_study(combo, j_max=6, slope_tol=0.15)
    slope = rep.comparisons["theil_sen_slope"]
    _report(
        "criterion-07 centered bound uniformity",
        rep.passed,
        f"Theil-Sen slope of log-ratio {slope:+.3f} within +/-0.15 over j=0..6",
    )


def test_c08_refined_bound():
    from dataclasses import replace

    combo = replace(pinned_combos()[2], quad={"n_outer": 512, "tol": 5e-3})
    rep, rows = refined_bound_study(combo, j_max=6)
    sp, sn = rep.comparisons["slope_positive"], rep.comparisons["slope_negative"]
    _report(
        "criterion-08 refined pinned-start bound",
        rep.passed,
        f"admissible target slope {sp:+.3f} <= 0.1 (bounded), "
        f"excessive target slope {sn:+.3f} > 0.1 (grows)",
    )


def test_c09_iterated_factorial_identity():
    t0 = time.time()
    rep = iterated_study()
    factorial_checks = [c for c in rep.checks if c["name"].startswith("factorial")]
    worst = max(c["observed"] / c["limit"] for c in factorial_checks)
    elapsed = time.time() - t0
    _report(
        "criterion-09 iterated factorial identity",
        rep.passed and elapsed < 120.0,
        f"n=1..5, f in {{t, sin}}: worst error {worst:.2f}x the 1e-5 rel + 1e-9 abs "
        f"budget, runtime {elapsed:.1f}s < 120s",
    )


def test_c10_fractional_operator_unit_suite():
    t0 = time.time()
    cfg = QuadratureConfig()
    # power-law Weyl table within 1e-4 relative
    worst_tbl = 0.0
    for mu in (0.3, 0.5, 0.9, 1.0):
        for alpha in (0.2, 0.4, 0.6):
            if mu <= alpha:
                continue
            for span in (0.25, 1.0):
                f = (lambda m: (lambda s: np.asarray(s, dtype=float) ** m))(mu)
                val = weyl_left(f, alpha, 0.0, span, mu, cfg).value
                exact = gamma(mu + 1.0) / gamma(mu + 1.0 - alpha) * span ** (mu - alpha)
                worst_tbl = max(worst_tbl, abs(val / exact - 1.0))
    # gamma identities within 1e-12
    worst_gamma = abs(gamma(1.0) - 1.0)
    worst_gamma = max(worst_gamma, abs(gamma(0.5) - math.sqrt(math.pi)))
    for x in np.linspace(0.1, 10, 100):
        worst_gamma = max(worst_gamma, abs(gamma(x + 1) - x * gamma(x)) / abs(gamma(x + 1)))
    # smooth-parts residuals
    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    residuals = [
        smooth_parts_identity_check(one, lambda t: t, 0.5, 0.0, 1.0, cfg),
        smooth_parts_identity_check(lambda t: t, lambda t: t**2, 0.3, 0.0, 1.0, cfg),
        smooth_parts_identity_check(np.cos, np.sin, 0.5, 0.0, 1.0, cfg),
    ]
    elapsed = time.time() - t0
    _report(
        "criterion-10 fractional operator unit suite",
        worst_tbl <= 1e-4 and worst_gamma <= 1e-12 and max(residuals) <= 1e-5
        and elapsed < 30.0,
        f"power table {worst_tbl:.1e} <= 1e-4, gamma {worst_gamma:.1e} <= 1e-12, "
        f"identity residuals {max(residuals):.1e} <= 1e-5, runtime {elapsed:.1f}s < 30s",
    )


def test_c11_stability_estimates():
    rep = stability_study()
    med = max(rep.comparisons["medium_fitted_constants"])
    pth = max(rep.comparisons["path_fitted_constants"])
    _report(
        "criterion-11 stability estimates",
        rep.passed,
        f"two-term bounds hold with uniform constants (fitted medium C {med:.2f}, "
        f"path C {pth:.2f}, caps 10); degenerate cases within 2x error estimates",
    )
