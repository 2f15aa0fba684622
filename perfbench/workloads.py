"""Seeded inputs of the benchmark workloads and the calls that solve them.

`generate` turns (workload, seed) into a JSON-able list of solve specs.  Each
spec carries the library-facing inputs (descriptor strings, or the paths of
grid JSON / path CSV files written here) and, under "ref", what the
reference module needs to compute the same integral on its own.  `build`
turns specs into library objects through the public API only, and `solve`
runs one of them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

import numpy as np

from reference import evaluate

WORKLOADS = ("wei-frac", "wei-sewing", "many-short", "grid-data")

# The six pinned product media of experiments.pinned_combos(): name, g (H,
# scales), h (H, scales) or None for the identity, phi (H, scales), and the
# declared (tau, lam, gamma).  Only the phases come from the seed.
PINNED = (
    ("wei-e02-lam1", (0.6, 12), None, (0.6, 12), (0.6, 1.0, 0.6)),
    ("wei-e02-lam08", (0.7, 12), (0.8, 10), (0.625, 12), (0.7, 0.8, 0.625)),
    ("wei-e03-lam1", (0.6, 12), None, (0.7, 12), (0.6, 1.0, 0.7)),
    ("wei-e03-steep", (0.75, 12), None, (0.55, 12), (0.75, 1.0, 0.55)),
    ("wei-e05-lam1", (0.8, 12), None, (0.7, 12), (0.8, 1.0, 0.7)),
    ("wei-e05-lam075", (0.9, 12), (0.75, 10), (0.8, 12), (0.9, 0.75, 0.8)),
)
ADDITIVITY_QUAD = {"n_outer": 1024, "tol": 5e-3}  # the budget of test_c05_additivity
README = ((0.6, 12), None, (0.7, 12), (0.6, 1.0, 0.7))  # the README library tour
INDEFINITE_POINTS = 129
GRID_SHAPE = (257, 65)
PATH_SAMPLES = 4097
GRID_REG = (0.7, 1.0, 0.6)

IDENTITY = {"kind": "identity"}


def _wei(rng, hs):
    H, scales = hs
    phases = [float(p) for p in rng.uniform(0.0, 2.0 * math.pi, scales)]
    return {"kind": "weierstrass", "H": H, "scales": scales, "base": 2.0, "phases": phases}


def _desc(spec) -> str:
    if spec["kind"] == "identity":
        return "identity"
    phases = "|".join(repr(p) for p in spec["phases"])
    return f"weierstrass:H={spec['H']!r},scales={spec['scales']},base=2,phases={phases}"


def _product_solve(name, kind, g, h, phi, reg, quad):
    return {
        "name": name,
        "kind": kind,
        "field": f"product:g=({_desc(g)}),h=({_desc(h)})",
        "path": _desc(phi),
        "reg": list(reg),
        "a": 0.0,
        "b": 1.0,
        "quad": quad,
        "ref": {"kind": "product", "g": g, "h": h, "phi": phi},
    }


def _draw(rng, case):
    g, h, phi = case[:3]
    return _wei(rng, g), IDENTITY if h is None else _wei(rng, h), _wei(rng, phi)


def _wei_media(rng, kind):
    solves = []
    for name, *case in PINNED:
        g, h, phi = _draw(rng, case)
        quad = ADDITIVITY_QUAD if kind == "frac" else {}
        solves.append(_product_solve(name, kind, g, h, phi, case[3], quad))
    g, h, phi = _draw(rng, README)
    solves.append(_product_solve("readme", kind, g, h, phi, README[3], {}))
    return solves


def _grid_inputs(rng, workdir):
    """A non-separable bilinear grid medium and a sampled path, as files."""
    phi = _wei(rng, (0.6, 12))
    pts = np.linspace(0.0, 1.0, PATH_SAMPLES)
    pvals = evaluate(phi, pts)
    span = pvals.max() - pvals.min()
    ts = np.linspace(0.0, 1.0, GRID_SHAPE[0])
    xs = np.linspace(pvals.min() - 0.1 * span, pvals.max() + 0.1 * span, GRID_SHAPE[1])
    a, b = evaluate(_wei(rng, (0.7, 8)), ts), evaluate(_wei(rng, (0.7, 8)), ts)
    shift = rng.uniform(0.0, 2.0 * math.pi)
    values = a[:, None] * xs[None, :] + b[:, None] * np.sin(1.3 * xs[None, :] + shift)
    grid_file = os.path.join(workdir, "grid.json")
    path_file = os.path.join(workdir, "path.csv")
    with open(grid_file, "w", encoding="utf-8") as fh:
        json.dump({"ts": ts.tolist(), "xs": xs.tolist(), "values": values.tolist()}, fh)
    with open(path_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        writer.writerows((repr(t), repr(v)) for t, v in zip(pts.tolist(), pvals.tolist()))
    ref = {"kind": "grid", "ts": ts.tolist(), "xs": xs.tolist(), "values": values.tolist(),
           "pts": pts.tolist(), "pvals": pvals.tolist()}
    return grid_file, path_file, ref


def generate(workload: str, seed: int, workdir: str) -> list[dict]:
    """Solve specs of one workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "wei-frac":
        solves = _wei_media(rng, "frac")
        f, g = _wei(rng, (0.7, 12)), _wei(rng, (0.6, 12))
        solves.append({
            "name": "young", "kind": "young", "f": _desc(f), "g": _desc(g),
            "alpha_f": 0.7, "beta_g": 0.6, "a": 0.0, "b": 1.0,
            "ref": {"kind": "product", "g": g, "h": IDENTITY, "phi": f},
        })
        return solves
    if workload == "wei-sewing":
        return _wei_media(rng, "sewing")
    if workload == "many-short":
        g, h, phi = _draw(rng, README)
        solve = _product_solve("readme-indefinite", "indefinite", g, h, phi, README[3], {})
        solve["n_points"] = INDEFINITE_POINTS
        return [solve]
    if workload == "grid-data":
        grid_file, path_file, ref = _grid_inputs(rng, workdir)
        return [
            {"name": f"grid-{kind}", "kind": kind, "field": grid_file, "path": path_file,
             "reg": list(GRID_REG), "a": 0.0, "b": 1.0, "quad": {}, "ref": ref}
            for kind in ("frac", "sewing")
        ]
    raise ValueError(f"unknown workload {workload!r}")


def intervals(spec) -> list[tuple[float, float]]:
    """The integration intervals of a spec, one per result it produces."""
    if spec["kind"] == "indefinite":
        ts = np.linspace(spec["a"], spec["b"], spec["n_points"])
        return [(float(s), float(t)) for s, t in zip(ts[:-1], ts[1:])]
    return [(spec["a"], spec["b"])]


# ---------------------------------------------------------------------------
# library side


def build(nl, specs) -> list[dict]:
    """Library objects for each spec: media, paths, exponents, configs."""
    out = []
    for s in specs:
        obj = {"spec": s}
        if s["kind"] == "young":
            obj["f"] = nl.paths.make_function(s["f"])
            obj["g"] = nl.paths.make_function(s["g"])
        else:
            if s["field"].endswith(".json"):
                obj["w"] = nl.read_grid_json(s["field"])
            else:
                obj["w"] = nl.make_field(s["field"])
            if s["path"].endswith(".csv"):
                obj["phi"] = nl.read_path_csv(s["path"])
            else:
                obj["phi"] = nl.paths.make_function(s["path"])
            obj["reg"] = nl.Regularity(*s["reg"])
            obj["cfg"] = nl.QuadratureConfig(**s["quad"])
        out.append(obj)
    return out


def solve(nl, obj, on_result=None):
    """Run one built spec; return [(value, error_estimate, converged, seconds, extra)].

    An indefinite integral yields one entry per subinterval, timed by a
    wrapper around the integrate_fractional calls it makes.  `on_result` is
    called after each entry is produced.  `extra` is the holder bound ratio of
    fractional and Young solves and the level count of sewing solves.
    """
    s = obj["spec"]
    kind = s["kind"]
    if kind == "indefinite":
        return _indefinite(nl, obj, on_result)
    t0 = time.perf_counter()
    if kind == "frac":
        rep = nl.integrate_fractional(obj["w"], obj["phi"], obj["reg"], s["a"], s["b"], obj["cfg"])
        extra = rep.bound_ratios["holder"]
    elif kind == "sewing":
        rep, _ = nl.integrate_sewing(obj["w"], obj["phi"], s["a"], s["b"])
        extra = rep.levels_used
    else:
        rep = nl.young_integral(obj["f"], obj["g"], s["alpha_f"], s["beta_g"], s["a"], s["b"])
        extra = rep.bound_ratio
    elapsed = time.perf_counter() - t0
    out = [(rep.value, rep.error_estimate, rep.converged, elapsed, extra)]
    if on_result:
        on_result()
    return out


def _indefinite(nl, obj, on_result):
    s = obj["spec"]
    inner = nl.nonlinear.integrate_fractional
    out = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        rep = inner(*args, **kwargs)
        out.append((rep.value, rep.error_estimate, rep.converged, time.perf_counter() - t0, None))
        if on_result:
            on_result()
        return rep

    nl.nonlinear.integrate_fractional = timed
    try:
        nl.indefinite_integral(obj["w"], obj["phi"], obj["reg"], s["a"], s["b"], s["n_points"])
    finally:
        nl.nonlinear.integrate_fractional = inner
    return out
