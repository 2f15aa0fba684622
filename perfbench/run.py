"""nlyoung benchmark: time-to-answer and reference error of both routes.

    python3 perfbench/run.py --workload wei-frac --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nlyoung is imported from ./src.  One
workload runs per process.  Its solves repeat as whole passes until the next
pass would end after --seconds (at least one pass), and every result is
scored against a reference that perfbench/reference.py computes without the
library.  A solve fails if it raises, returns a non-finite value or error
estimate, or misses the reference by more than 5 error estimates.

With --trace 0 the end-to-end metrics are measured; with --trace 1 passes
alternate untraced and traced (perfbench/spans.py), the per-layer metrics
come from the traced passes, and their values must match the untraced ones
bit for bit.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: within the nproc cap, and on a
# shared 2-core machine threaded matrix-vector products made per-solve times
# spread seven times wider (interquartile range 25% vs 3.5% of the median)
# without being faster.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import reference
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 15
# A cold `import numpy` on the reference host (2-core x86-64, Python 3.11,
# numpy 2.4.6), in seconds: set-up times are reported at that host speed.
NUMPY_IMPORT_REF_S = 0.085
CAL_POINTS = 1 << 19
FAIL_FACTOR = 5.0  # |value - reference| allowed, in error estimates


def metric_units(group: str) -> dict:
    """Metric name -> unit, for one metric group of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def import_nlyoung():
    if not os.path.isfile(os.path.join(SRC, "nlyoung", "__init__.py")):
        raise SystemExit(f"perfbench: no nlyoung sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import nlyoung

    if not os.path.abspath(nlyoung.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported nlyoung from {nlyoung.__file__}, not {SRC}")
    return nlyoung


def _probe(arg: str) -> float:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), arg],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(spec_file: str) -> tuple[float, float, float]:
    """Set-up time scaled to the reference host, its raw median, and the
    median cold numpy import; all in seconds.

    Fresh processes (perfbench/probe.py) alternate: a numpy import, a set-up
    (import nlyoung, build the workload's media and paths), a numpy import,
    and so on; the first pair only warms the file cache.  Each set-up is
    divided by the mean of the numpy imports on either side of it, and the
    median of these ratios times NUMPY_IMPORT_REF_S is `setup_s`.
    """
    _probe("--numpy"), _probe(spec_file)
    cals, raw = [_probe("--numpy")], []
    for _ in range(SETUP_PROBES):
        raw.append(_probe(spec_file))
        cals.append(_probe("--numpy"))
    ratios = [r / (0.5 * (c0 + c1)) for r, c0, c1 in zip(raw, cals, cals[1:])]
    return (statistics.median(ratios) * NUMPY_IMPORT_REF_S,
            statistics.median(raw), statistics.median(cals))


def _cosine_kernel():
    """Cosines, a gather and a multiply-add over 2^19 doubles, like the
    Weierstrass series evaluation."""
    x = np.linspace(0.0, 2000.0, CAL_POINTS)
    idx = (np.arange(CAL_POINTS) * 7919) % CAL_POINTS

    def kernel():
        y = np.cos(x)
        return y[idx] * x + y

    return kernel


def _grid_kernel():
    """Bilinear lookups in a 257x65 table at 2^18 points (searchsorted, two
    gathers, a blend, a select), like GridField increments."""
    n = CAL_POINTS // 2
    axis = np.linspace(0.0, 1.0, 257)
    table = np.sin(np.arange(257 * 65, dtype=float)).reshape(257, 65)
    q = (np.arange(n) * 0.6180339887498949) % 1.0
    col = (np.arange(n) * 7919) % 64

    def kernel():
        i = np.clip(np.searchsorted(axis, q, side="right") - 1, 0, 255)
        w = (q - axis[i]) / (axis[i + 1] - axis[i])
        v = table[i, col] * (1.0 - w) + table[i + 1, col] * w
        return np.where(i % 2 == 0, v, -v)

    return kernel


# The calibration kernel of each workload: the operations that dominate it.
# Timed around grid-data's solves, the cosine kernel spread the calibrated
# times wider than no calibration at all (interquartile range 15% vs 14%
# over eight 20-second windows, 20% vs 12% over seventeen 12-second ones);
# with the grid kernel, ten 25-second runs spread 8% where raw times spread
# 18%.
CAL_KERNELS = {"wei-frac": _cosine_kernel, "wei-sewing": _cosine_kernel,
               "many-short": _cosine_kernel, "grid-data": _grid_kernel}


def calibrator(workload: str):
    """A function timing the workload's fixed calibration kernel: the best of
    two runs, in seconds."""
    kernel = CAL_KERNELS[workload]()

    def seconds() -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    return seconds


def run_passes(nl, objs, budget: float, calibrate, rec=None) -> list[dict]:
    """Whole passes over the solves until the next one would overrun `budget`.

    Each solve call is timed, and so is the calibration kernel before and
    after it; the call's `scale` is the mean of the two.  With a recorder,
    passes alternate untraced and traced and end on a traced one, so that
    both kinds see the same warm-up.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = rec is not None and len(passes) % 2 == 1
        with spans.instrument(nl, rec) if traced else contextlib.nullcontext():
            begin = rec.mark() if traced else None
            results, calls, cals = [], [], [calibrate()]
            for obj in objs:
                t0 = time.perf_counter()
                try:
                    results.append(workloads.solve(nl, obj, rec.end_solve if traced else None))
                except Exception:  # a failed solve is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
                calls.append(time.perf_counter() - t0)
                cals.append(calibrate())
            end = rec.mark() if traced else None
        passes.append({
            "results": results,
            "calls": calls,
            "scale": [0.5 * (c0 + c1) for c0, c1 in zip(cals, cals[1:])],
            "traced": traced,
            "marks": (begin, end),
        })
        elapsed = time.perf_counter() - start
        if (rec is None or traced) and elapsed * (1 + 1 / len(passes)) > budget:
            return passes


def score(specs, refs, results) -> dict:
    """Errors of one pass against the references."""
    rows, abs_errs, covers, failed, attempted, nonconverged = [], [], [], 0, 0, 0
    for spec, spec_refs, res in zip(specs, refs, results):
        attempted += len(spec_refs)
        if res is None:
            failed += len(spec_refs)
            continue
        for (value, est, converged, _, extra), ref in zip(res, spec_refs):
            err = abs(value - ref)
            cover = err / est if est > 0 else math.inf
            ok = math.isfinite(value) and math.isfinite(est) and err <= FAIL_FACTOR * est
            failed += not ok
            nonconverged += not converged
            abs_errs.append(err)
            covers.append(cover)
            rows.append([spec["name"], value, est, converged, extra, ref])
    return {
        "rows": rows,
        "abs_err_max": max(abs_errs, default=math.inf),
        "err_cover_max": max(covers, default=math.inf),
        "failed": failed,
        "attempted": attempted,
        "nonconverged": nonconverged,
    }


def outputs(results) -> list:
    """The deterministic part of a pass: everything but the timings."""
    return [None if r is None else [(v, e, c, x) for v, e, c, _, x in r] for r in results]


def layer_metrics(rec, begin, end, wall: float) -> dict:
    n, incl, self_s, counts = rec.totals(begin, end)
    terms = [f"nonlinear.term_i{k}" for k in range(1, 5)]
    evaluated = counts["paths.evaluated"]
    return {
        "paths.wei_calls": n["paths.wei"],
        "paths.wei_points": counts["paths.wei_points"],
        "paths.wei_s": self_s["paths.wei"],
        "paths.distinct_ratio": counts["paths.distinct"] / evaluated if evaluated else 0.0,
        "paths.sampled_points": counts["paths.sampled_points"],
        "paths.sampled_s": self_s["paths.sampled"],
        "paths.seminorm_pairs": counts["paths.seminorm_pairs"],
        "paths.seminorm_s": incl["paths.seminorm"],
        "fields.incr_calls": n["fields.incr"],
        "fields.incr_points": counts["fields.incr_points"],
        "fields.incr_s": self_s["fields.incr"],
        "fields.seminorm_pairs": counts["fields.seminorm_pairs"],
        "fields.seminorm_s": incl["fields.seminorm"],
        "quadrature.mesh_calls": n["quadrature.mesh"],
        "quadrature.mesh_cells": counts["quadrature.mesh_cells"],
        "quadrature.mesh_s": self_s["quadrature.mesh"],
        "quadrature.refine_calls": n["quadrature.refine"],
        "quadrature.refine_nonconverged": counts["quadrature.refine_nonconverged"],
        "quadrature.refine_s": incl["quadrature.refine"],
        **{f"{t}_s": incl[t] for t in terms},
        "nonlinear.kernel_s": sum(self_s[t] for t in terms),
        "nonlinear.sewing_levels": counts["nonlinear.sewing_levels"],
        "nonlinear.sewing_points": counts["nonlinear.sewing_points"],
        "nonlinear.sewing_s": incl["nonlinear.sewing"],
        "nonlinear.sewing_max_levels_hits": counts["nonlinear.sewing_max_levels_hits"],
        "fraccalc.dl_dr_s": incl["fraccalc.dl_dr"],
        "young.solve_s": incl["young.solve"],
        "trace.wall_s": wall,
    }


def timings(passes) -> dict:
    """Per pass: wall time, and the median and 90th percentile of its solve
    times; each raw (seconds) and calibrated.

    A calibrated time is the raw time divided by the calibration kernel's
    time around the same solve call, so it is in units of that kernel
    ("cal").  The host's speed drifts by a quarter within minutes; the ratio
    cancels most of the drift.  Per-solve statistics are taken within a pass
    because the solves of one pass differ in size.
    """
    out = {k: [] for k in ("wall_s", "solve_s", "solve_s_p90", "wall_cal", "solve_cal", "solve_cal_p90")}
    for p in passes:
        raw = [e[3] for res in p["results"] for e in res or ()]
        cal = [e[3] / k for res, k in zip(p["results"], p["scale"]) for e in res or ()]
        for unit, calls, solves in (
            ("s", p["calls"], raw),
            ("cal", [c / k for c, k in zip(p["calls"], p["scale"])], cal),
        ):
            out[f"wall_{unit}"].append(sum(calls))
            out[f"solve_{unit}"].append(statistics.median(solves) if solves else math.nan)
            out[f"solve_{unit}_p90"].append(
                statistics.quantiles(solves, n=10, method="inclusive")[-1] if len(solves) > 1 else math.nan
            )
    return out


def per_layer(rec, traced, plain, acc, problems) -> dict:
    """Per-layer metrics: counts of one traced pass (they must repeat exactly),
    the median of each time over traced passes, and the accuracy figures."""
    per_pass = [layer_metrics(rec, *p["marks"], sum(p["calls"])) for p in traced]
    metrics = {}
    for name in per_pass[0]:
        vals = [m[name] for m in per_pass]
        if isinstance(vals[0], int):
            if any(v != vals[0] for v in vals):
                problems.append(f"count {name} differs between traced passes: {vals}")
            metrics[name] = vals[0]
        else:
            metrics[name] = statistics.median(vals)
    metrics["trace.overhead_ratio"] = (
        statistics.median(timings(traced)["wall_cal"]) / statistics.median(timings(plain)["wall_cal"])
    )
    metrics["accuracy.abs_err_max"] = acc["abs_err_max"]
    metrics["accuracy.err_cover_max"] = acc["err_cover_max"]
    metrics["accuracy.failed_frac"] = acc["failed"] / acc["attempted"]
    metrics["accuracy.nonconverged"] = acc["nonconverged"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    nl = import_nlyoung()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        specs = workloads.generate(args.workload, args.seed, workdir)
        spec_file = os.path.join(workdir, "specs.json")
        with open(spec_file, "w", encoding="utf-8") as fh:
            json.dump([{k: v for k, v in s.items() if k != "ref"} for s in specs], fh)
        setup = (None,) * 3 if args.trace else measure_setup(spec_file)
        objs = workloads.build(nl, specs)
        rec = spans.Recorder() if args.trace else None
        passes = run_passes(nl, objs, args.seconds, calibrator(args.workload), rec)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT)  # only if no spans file was ever written

    problems = []
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        refs = [[reference.reference(s["ref"], a, b) for a, b in workloads.intervals(s)] for s in specs]
    except reference.ReferenceMismatch as exc:
        problems.append(str(exc))
        refs = [[math.nan] * len(workloads.intervals(s)) for s in specs]
    first = outputs(passes[0]["results"])
    if any(outputs(p["results"]) != first for p in passes[1:]):
        problems.append("a pass returned different values than the first")
    scores = [score(specs, refs, p["results"]) for p in passes]
    attempted = sum(s["attempted"] for s in scores)
    failed = sum(s["failed"] for s in scores)
    acc = scores[0]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    t = {k: statistics.median(v) for k, v in timings(plain).items()}
    if args.trace:
        metrics = per_layer(rec, traced, plain, acc, problems)
        os.makedirs(OUT, exist_ok=True)
        rec.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    else:
        metrics = {"setup_s": setup[0], "peak_rss_mb": peak_rss_mb}
        metrics.update((k, t[k]) for k in ("wall_cal", "solve_cal", "solve_cal_p90"))

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain),
        "traced_passes": len(traced),
        "solves_per_pass": len(acc["rows"]),
        "setup_raw_s": setup[1],
        "numpy_import_s": setup[2],
        "wall_s": t["wall_s"],
        "solve_s": t["solve_s"],
        "solve_s_p90": t["solve_s_p90"],
        "cal_s": statistics.median(k for p in plain for k in p["scale"]),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "deterministic": {
            "rows": acc["rows"],
            "abs_err_max": acc["abs_err_max"],
            "err_cover_max": acc["err_cover_max"],
            "failed_frac": acc["failed"] / acc["attempted"],
            "nonconverged": acc["nonconverged"],
            "counts": {k: v for k, v in metrics.items() if isinstance(v, int)},
        },
    }
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    print(json.dumps(detail))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
