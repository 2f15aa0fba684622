"""Span recorder and the wrappers that put it around nlyoung's layers.

Nothing in the library changes: `instrument` rebinds public entry points of
paths, fields, quadrature, nonlinear, fraccalc and young, in every module
that imported them by name, to wrappers that record a span per call (name,
start, end, parent) and count the work passed in.  Spans stay in memory until
`Recorder.dump`.  A span's self time is its duration minus the time covered
by its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Recorder:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._child: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.abscissae: dict[int, list[np.ndarray]] = defaultdict(list)
        self.term = 0  # refine_levels calls seen in the current integrate_fractional

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] >= 0:
            self._child[span[3]] += span[2] - span[1]

    def end_solve(self) -> None:
        """Fold the abscissae of the finished solve into the distinct counts."""
        for arrays in self.abscissae.values():
            ts = np.concatenate(arrays)
            self.counts["paths.evaluated"] += ts.size
            self.counts["paths.distinct"] += np.unique(ts).size
        self.abscissae.clear()

    def mark(self) -> tuple[int, dict]:
        return len(self.spans), dict(self.counts)

    def totals(self, begin: tuple[int, dict], end: tuple[int, dict]) -> tuple[dict, dict, dict, dict]:
        """Per span name: count, inclusive seconds and self seconds; plus the
        counter increments, all between two `mark`s."""
        n, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for i in range(begin[0], end[0]):
            name, t0, t1, _ = self.spans[i]
            n[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - self._child[i]
        counts = defaultdict(int, {k: v - begin[1].get(k, 0) for k, v in end[1].items()})
        return n, incl, self_s, counts

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _size(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _span(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _count(rec, key, measure):
    def after(args, kwargs, out):
        rec.counts[key] += measure(args, out)

    return after


def _path_call(rec, key):
    """Counts points and keeps the abscissae per path object."""

    def after(args, kwargs, out):
        obj, *ts = args
        rec.counts[key] += _size(*ts)
        for t in ts:
            rec.abscissae[id(obj)].append(np.array(t, dtype=float).ravel())

    return after


@contextmanager
def instrument(nl, rec: Recorder):
    """Install the wrappers for the duration of the block."""
    from nlyoung import fields, fraccalc, nonlinear, paths, young

    saved = []

    def patch(owners, attr, wrapper_for):
        original = getattr(owners[0], attr)
        wrapped = wrapper_for(original)
        for owner in owners:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    # paths: cosine-series and sampled-path evaluation, seminorm probing
    patch([paths.WeierstrassFunction], "__call__",
          lambda f: _span(rec, "paths.wei", f, _path_call(rec, "paths.wei_points")))
    for attr in ("__call__", "diff"):
        patch([paths.SampledPath], attr,
              lambda f: _span(rec, "paths.sampled", f, _path_call(rec, "paths.sampled_points")))
    patch([nonlinear, young, nl], "holder_seminorm_path",
          lambda f: _span(rec, "paths.seminorm", f,
                          _count(rec, "paths.seminorm_pairs", lambda a, out: out.n_pairs_checked)))

    # fields: increments of the medium classes the workloads use, seminorm probing
    for cls in (fields.ProductField, fields.GridField):
        for attr in ("increment_t", "increment_x", "increment_rect"):
            patch([cls], attr, lambda f: _span(
                rec, "fields.incr", f,
                _count(rec, "fields.incr_points", lambda a, out: _size(*a[1:]))))
    patch([nonlinear, nl], "holder_seminorm_field",
          lambda f: _span(rec, "fields.seminorm", f,
                          _count(rec, "fields.seminorm_pairs", lambda a, out: out.n_pairs_checked)))

    # quadrature: mesh construction and Richardson refinement, where consumed
    for attr in ("singular_cells", "two_sided_cells"):
        patch([nonlinear, fraccalc], attr, lambda f: _span(
            rec, "quadrature.mesh", f,
            _count(rec, "quadrature.mesh_cells", lambda a, out: out[0].size)))
    nonconverged = _count(rec, "quadrature.refine_nonconverged", lambda a, out: int(not out.converged))

    def refine_terms(refine):
        # the four refine_levels calls of integrate_fractional are I1..I4 in order
        def wrapper(evaluate, *args, **kwargs):
            rec.term += 1
            name = f"nonlinear.term_i{rec.term}"
            return refine(lambda n: _span(rec, name, evaluate)(n), *args, **kwargs)

        return _span(rec, "quadrature.refine", wrapper, nonconverged)

    patch([nonlinear], "refine_levels", refine_terms)
    patch([fraccalc], "refine_levels", lambda f: _span(rec, "quadrature.refine", f, nonconverged))

    # nonlinear, fraccalc, young: the solves themselves
    def fractional(f):
        def wrapper(*args, **kwargs):
            rec.term = 0
            return f(*args, **kwargs)

        return _span(rec, "nonlinear.fractional", functools.wraps(f)(wrapper))

    def sewing_counts(args, kwargs, out):
        report, _ = out
        levels = report.levels_used
        rec.counts["nonlinear.sewing_levels"] += levels + 1
        rec.counts["nonlinear.sewing_points"] += 2 ** (levels + 1) - 1
        rec.counts["nonlinear.sewing_max_levels_hits"] += int(levels == report.params["max_levels"])

    patch([nonlinear, nl], "integrate_fractional", fractional)
    patch([nonlinear, nl], "integrate_sewing", lambda f: _span(rec, "nonlinear.sewing", f, sewing_counts))
    patch([nonlinear, nl], "indefinite_integral", lambda f: _span(rec, "nonlinear.indefinite", f))
    patch([young], "dl_dr_integral", lambda f: _span(rec, "fraccalc.dl_dr", f))
    patch([young, nl], "young_integral", lambda f: _span(rec, "young.solve", f))
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
