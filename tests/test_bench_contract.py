"""The names perfbench/spans.py patches must exist in the library.

A traced benchmark run rebinds them for its duration; a name that has gone
missing fails only there, in a run of minutes.  Entering and leaving the same
context here catches it in a second.
"""

import pathlib

import numpy as np

import nlyoung
from nlyoung import fraccalc, nonlinear, young
from nlyoung.quadrature import QuadratureConfig

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_spans_instrument_finds_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = {(mod, name): getattr(mod, name) for mod in (fraccalc, nonlinear, young) for name in dir(mod)}
    rec = spans.Recorder()
    with spans.instrument(nlyoung, rec):
        # a wrapped call records its spans
        young.young_integral(np.sin, np.cos, 1.0, 1.0, 0.0, 1.0, cfg=QuadratureConfig(n_outer=32))
    names = {span[0] for span in rec.spans}
    assert {"young.solve", "fraccalc.dl_dr", "quadrature.refine"} <= names
    after = {(mod, name): getattr(mod, name) for mod in (fraccalc, nonlinear, young) for name in dir(mod)}
    assert all(after[key] is value for key, value in before.items())
