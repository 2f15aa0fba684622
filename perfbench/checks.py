"""Checks of the benchmark itself.

    python3 perfbench/checks.py repeat [--seed 0]   # outputs repeat exactly across two runs
    python3 perfbench/checks.py sewing [--seed 0]   # deep sewing vs the references

`repeat` runs every workload twice with tracing on and compares everything
that does not measure time: each value, error estimate and convergence flag,
the reference errors, the failure share and every per-layer count.  `sewing`
checks that sewing at 2^18 intervals lands within its own error estimate of
the reference on every medium of every workload (the reference's two
resolutions are compared whenever one is computed).  Each exits 1 on a
mismatch.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import reference
import run
import workloads


def _run_once(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["deterministic"]


def repeat(seed: int) -> bool:
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = _run_once(workload, seed), _run_once(workload, seed)
        same = first == second
        ok &= same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} "
              f"({len(first['rows'])} results, {len(first['counts'])} counts)")
    return ok


def sewing(seed: int) -> bool:
    nl = run.import_nlyoung()
    ok = True
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for workload in workloads.WORKLOADS:
            for spec in workloads.generate(workload, seed, workdir):
                if spec["kind"] == "young":  # int f dg is W = g(t) x along f
                    spec = dict(spec, field=f"product:g=({spec['g']}),h=(identity)", path=spec["f"])
                obj = workloads.build(nl, [dict(spec, kind="sewing", reg=[1.0, 1.0, 1.0], quad={})])[0]
                rep, _ = nl.integrate_sewing(obj["w"], obj["phi"], spec["a"], spec["b"], max_levels=18)
                ref = reference.reference(spec["ref"], spec["a"], spec["b"])
                err = abs(rep.value - ref)
                within = err <= rep.error_estimate
                ok &= within
                print(f"{workload}/{spec['name']}: |sewing - ref| = {err:.3g}, "
                      f"estimate {rep.error_estimate:.3g}, levels {rep.levels_used}"
                      f"{'' if within else '  OUTSIDE ESTIMATE'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="checks of the nlyoung benchmark")
    parser.add_argument("check", choices=("repeat", "sewing"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    ok = repeat(args.seed) if args.check == "repeat" else sewing(args.seed)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
