"""Sampled paths, deterministic Holder test functions, and seminorm estimation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SampledPath",
    "HolderReport",
    "WeierstrassFunction",
    "make_weierstrass",
    "sample_function",
    "sample_uniform",
    "holder_seminorm_path",
    "path_diff",
    "sup_norm",
    "make_function",
    "read_path_csv",
    "write_path_csv",
]

PathLike = Callable[[np.ndarray], np.ndarray]

# entries per temporary array of a blocked evaluation: 256 KB of floats, so a
# block's temporaries stay in cache and glibc serves them from its heap rather
# than mapping (and faulting in) fresh pages for every block.  The path
# seminorm takes blocks of lags of this many pairs, the field seminorm's probe
# products row blocks of this many entries, the sewing sweep pieces of the
# largest power of two within it, whatever the medium, and a base-2 series
# call a quarter (it keeps four buffers of its block).
_BLOCK_ENTRIES = 1 << 15
# most scales a base-2 series takes by angle doubling (WeierstrassFunction):
# its modulus error at scale k, about 2^k eps, stays below 1/2 up to scale 51
_DOUBLING_SCALES = 52


@dataclass(frozen=True)
class SampledPath:
    """A one-variable function given by sorted samples.

    Evaluation interpolates linearly between stamps and raises outside
    [ts[0], ts[-1]].  Instances are immutable and safe to share across
    threads.
    """

    ts: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", vals)
        if ts.ndim != 1 or ts.size < 2:
            raise ValueError("need at least two sample times")
        if vals.shape != ts.shape:
            raise ValueError("ts and values must have matching shapes")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vals))):
            raise ValueError("samples must be finite")
        ts.flags.writeable = False
        vals.flags.writeable = False

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.ts[0]), float(self.ts[-1])

    @property
    def finest_frequency(self) -> float:
        """One over the smallest spacing of the stamps (see make_function)."""
        return 1.0 / float(np.min(np.diff(self.ts)))

    def _check_domain(self, t: np.ndarray) -> None:
        lo, hi = self.domain
        tmin, tmax = np.min(t), np.max(t)
        # tolerate roundoff-level excursions from quadrature node arithmetic
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        if tmin < lo - slack or tmax > hi + slack:
            raise ValueError(
                f"evaluation at t in [{tmin:g}, {tmax:g}] outside domain [{lo:g}, {hi:g}]"
            )

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.interp(arr, self.ts, self.values)
        return out if np.ndim(t) else float(out)

    def diff(self, t, s):
        """values(t) - values(s) with the common interpolation terms cancelled.

        Within one linear segment the result is slope * (t - s) exactly, which
        preserves the smallness of nearby differences better than subtracting
        two interpolated values.
        """
        ta = np.asarray(t, dtype=float)
        sa = np.asarray(s, dtype=float)
        self._check_domain(ta)
        self._check_domain(sa)
        i = np.clip(np.searchsorted(self.ts, ta, side="right") - 1, 0, self.ts.size - 2)
        j = np.clip(np.searchsorted(self.ts, sa, side="right") - 1, 0, self.ts.size - 2)
        dt_nodes = np.diff(self.ts)
        slopes = np.diff(self.values) / dt_nodes
        same = i == j
        local = slopes[i] * (ta - sa)
        split = (
            (self.values[i] - self.values[j])
            + slopes[i] * (ta - self.ts[i])
            - slopes[j] * (sa - self.ts[j])
        )
        out = np.where(same, local, split)
        return out if (np.ndim(t) or np.ndim(s)) else float(out)

    def restricted(self, a: float, b: float) -> "SampledPath":
        """Samples inside [a, b], with interpolated endpoint values added."""
        lo, hi = self.domain
        if a < lo - 1e-12 or b > hi + 1e-12 or a >= b:
            raise ValueError(f"[{a}, {b}] not covered by path domain [{lo}, {hi}]")
        mask = (self.ts > a) & (self.ts < b)
        ts = np.concatenate([[a], self.ts[mask], [b]])
        vals = np.concatenate([[self(a)], self.values[mask], [self(b)]])
        keep = np.concatenate([[True], np.diff(ts) > 0])
        return SampledPath(ts[keep], vals[keep])


@dataclass(frozen=True)
class HolderReport:
    """Estimated Holder seminorm: a sup over finitely many probed pairs."""

    seminorm: float
    exponent: float
    arg_pair: tuple[float, float]
    n_pairs_checked: int


class WeierstrassFunction:
    """f(t) = sum_k base^(-k H) cos(base^k t + phase_k), H-Holder on compacts.

    With finitely many scales the function is smooth below base^(-scales), so
    every quantity the package computes from it is resolvable in floats.
    Identical constructor arguments give bitwise-identical values.

    Two evaluators: calling the function evaluates at arbitrary points;
    a uniform grid is sampled from one factorization (`grid_factors`), a
    matrix product of a factor per row of m nodes and a factor per column.
    `on_grid` multiplies it whole; the sewing sweep builds one over all of
    its nodes and multiplies a piece's rows at a time.  Both evaluators
    meet the same accuracy contract: at the points t, the error is at most a
    small multiple of eps * sum_k A_k (1 + F_k max|t| + |p_k|), with the
    amplitudes A_k = base^(-k H), frequencies F_k = base^k and phases p_k.
    Their values agree within that bound, not bitwise.

    A call with base 2 takes two sines per point.  F_k t = 2^k t is exact,
    so each scale follows from the one before by the double angle: with
    d = 1 - cos(F_k t) and s = sin(F_k t), from d = 2 sin(t/2)^2,
      d <- s^2 + d (2 - d),   s <- 2 (s - s d),
    which is (c, s) <- (c^2 - s^2, 2 c s) for c = 1 - d, without the
    cancellation of 1 - c at small angles.  Scale k adds
    A_k cos(p_k) (1 - d) - A_k sin(p_k) s, the constants A_k cos(p_k) summed
    once by math.fsum.  A doubling doubles the errors of the angle and of the
    modulus and adds one rounding: at most eps/2 relative while the angle is
    small, about eps absolute after.  So at scale k both errors are eps
    F_k |t| times a small factor (at most log2(1/|t|)/2 for |t| < 1, were
    every small-angle rounding to fall the same way): the contract's F_k |t|
    term, with no renormalisation.  That holds while the modulus error, about
    eps F_k min(1, |t|), is small: once it nears 1 each doubling squares the
    modulus, which overflows a few scales later.  So a base-2 series of more
    than 52 scales takes one cosine per point and scale, as does any other
    base.  There the F_k |t| and |p_k| terms are the rounding of the cosine's
    argument: fl(fl(F_k t) + p_k) is off by at most
    (eps/2) (|F_k t| + |F_k t + p_k|) <= eps (F_k |t| + |p_k| / 2), and the
    cosine passes that error on with a factor of at most one.  Either way a
    point's value does not depend on the array it is in.
    """

    def __init__(
        self,
        H: float,
        scales: int,
        base: float = 2.0,
        phases: Sequence[float] | None = None,
    ) -> None:
        if not 0.0 < H < 1.0:
            raise ValueError("H must lie in (0, 1)")
        if not 2.0 <= base < math.inf:
            raise ValueError("base must be finite and >= 2")
        if scales < 1:
            raise ValueError("scales must be >= 1")
        self.H = float(H)
        self.scales = int(scales)
        self.base = float(base)
        if phases is None:
            phases = [0.0] * scales
        if len(phases) != scales:
            raise ValueError("need one phase per scale")
        self.phases = tuple(float(p) for p in phases)
        if not all(map(math.isfinite, self.phases)):
            raise ValueError("phases must be finite")
        self._amps = self.base ** (-self.H * np.arange(self.scales))
        self._freqs = self.base ** np.arange(self.scales)
        # A_k cos(F_k t + p_k) = A_k cos(p_k) cos(F_k t) - A_k sin(p_k) sin(F_k t)
        self._cos_amps = self._amps * np.cos(self.phases)
        self._sin_amps = self._amps * np.sin(self.phases)
        self._cos_amps_sum = math.fsum(self._cos_amps)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        if self.base == 2.0 and self.scales <= _DOUBLING_SCALES:
            out = self._doubling(arr.ravel()).reshape(arr.shape)
        else:
            out = np.zeros_like(arr)
            tmp = np.empty_like(arr)
            for a, w, p in zip(self._amps, self._freqs, self.phases):
                # out += a * cos(w * arr + p), without a temporary per operation
                np.multiply(arr, w, out=tmp)
                tmp += p
                np.cos(tmp, out=tmp)
                tmp *= a
                out += tmp
        return out if np.ndim(t) else float(out)

    def _doubling(self, x: np.ndarray) -> np.ndarray:
        """The base-2 series at the flat array x by angle doubling (class doc).

        Blocks of _BLOCK_ENTRIES // 4 points share four buffers.  Only real
        ufuncs touch a point's numbers, so its value is the same in any array.
        """
        out = np.empty_like(x)
        size = _BLOCK_ENTRIES // 4
        bufs = [np.empty(min(size, x.size)) for _ in range(4)]
        for lo in range(0, x.size, size):
            block = x[lo:lo + size]
            d, s, u, v = (buf[:block.size] for buf in bufs)
            acc = out[lo:lo + block.size]
            np.multiply(block, 0.5, out=d)
            np.sin(d, out=d)
            d *= d
            d += d
            np.sin(block, out=s)
            acc.fill(0.0)
            for k, (ca, sa) in enumerate(zip(self._cos_amps, self._sin_amps)):
                if k:
                    np.multiply(s, d, out=v)
                    np.subtract(2.0, d, out=u)
                    u *= d
                    np.multiply(s, s, out=d)
                    d += u
                    s -= v
                    s += s
                np.multiply(d, ca, out=u)
                acc -= u
                np.multiply(s, sa, out=u)
                acc -= u
            acc += self._cos_amps_sum
        return out

    def grid_factors(self, start: float, step: float, count: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) with f(start + i * step) = (left @ right)[q, r] for
        i = q m + r < count, 0 <= r < m.

        Each term is A_k cos(F_k (start + q m step) + p_k + F_k r step), the
        real part of a product of a factor in q and a factor in r.  So the sum
        over scales is one real (Q x 2K) @ (2K x m) product, Q = ceil(count /
        m): 2K (Q + m) trig calls for the K scales in place of K * count, for
        any base and phases.  A slice of left's rows gives those rows alone.
        """
        rows = -(-count // m)
        outer = np.multiply.outer(start + (np.arange(rows) * m) * step, self._freqs)
        outer += self.phases
        inner = np.multiply.outer(self._freqs, np.arange(m) * step)
        left = np.concatenate([np.cos(outer) * self._amps, np.sin(outer) * -self._amps], axis=1)
        right = np.concatenate([np.cos(inner), np.sin(inner)])
        return left, right

    def on_grid(self, start: float, step: float, count: int) -> np.ndarray:
        """f(start + i * step) for i = 0..count-1: the whole product of
        grid_factors at m = isqrt(count - 1) + 1, about sqrt(count), where
        Q + m is least."""
        left, right = self.grid_factors(start, step, count, math.isqrt(count - 1) + 1)
        return (left @ right).ravel()[:count]

    @property
    def finest_frequency(self) -> float:
        """base**scales, base times the highest frequency (see make_function)."""
        return self.base**self.scales

    @property
    def descriptor(self) -> str:
        desc = f"weierstrass:H={self.H:g},scales={self.scales},base={self.base:g}"
        if any(p != 0.0 for p in self.phases):
            desc += ",phases=" + "|".join(f"{p:g}" for p in self.phases)
        return desc


def make_weierstrass(
    H: float,
    scales: int,
    base: float = 2.0,
    phases: Sequence[float] | None = None,
) -> WeierstrassFunction:
    """Deterministic H-Holder test function (cosine series, see class doc)."""
    return WeierstrassFunction(H, scales, base, phases)


def sample_uniform(f: PathLike, ts: np.ndarray, step: float) -> np.ndarray:
    """f at the uniform nodes ts, ts[i] = ts[0] + i * step up to rounding.

    A series with `on_grid` (WeierstrassFunction) is sampled by it; any other
    callable is called on ts itself, so it sees exactly these nodes.
    """
    if hasattr(f, "on_grid"):
        return f.on_grid(float(ts[0]), step, ts.size)
    return np.asarray(f(ts), dtype=float)


def sample_function(f: PathLike, a: float, b: float, n: int) -> SampledPath:
    """Sample a callable on n+1 uniform points of [a, b]."""
    ts = np.linspace(a, b, n + 1)
    return SampledPath(ts, sample_uniform(f, ts, (b - a) / n))


def _as_sampled(f, a: float, b: float, n: int) -> SampledPath:
    """f itself if it is a SampledPath, else sample_function(f, a, b, n)."""
    return f if isinstance(f, SampledPath) else sample_function(f, a, b, n)


def path_diff(f, t, s):
    """f(t) - f(s), routed through f.diff when available (SampledPath)."""
    if hasattr(f, "diff"):
        return f.diff(t, s)
    return f(t) - f(s)


def sup_norm(f, a: float, b: float, n: int = 2048) -> float:
    """Sup of |f| on [a, b], probed on a uniform grid."""
    ts = np.linspace(a, b, n + 1)
    return float(np.max(np.abs(f(ts))))


# ---------------------------------------------------------------------------
# Holder seminorm estimation


_ALL_PAIRS_LIMIT = 2048
_DENSE_LAGS = 64
# relative slack of the per-lag bounds; it covers the few ulps by which the
# rounding of a power and a quotient can move a bound, with a wide margin
_BOUND_SLACK = 1e-12


def _probe_times(p: SampledPath, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    r = p.restricted(a, b)
    return r.ts, r.values


def _pair_schedule(n: int) -> list[int]:
    """Deterministic lag schedule: every lag for at most _ALL_PAIRS_LIMIT
    samples, otherwise every small lag, then geometric spacing."""
    if n <= _ALL_PAIRS_LIMIT:
        return list(range(1, n))
    lags = list(range(1, min(_DENSE_LAGS, n - 1) + 1))
    lag = _DENSE_LAGS
    while lag < n - 1:
        lag = int(math.ceil(lag * 1.5))
        if lag >= n:
            break
        lags.append(lag)
    return lags


def _lag_blocks(lags: np.ndarray, n: int) -> list[slice]:
    """Consecutive runs of the schedule, each of about _BLOCK_ENTRIES pairs."""
    blocks, j = [], 0
    while j < lags.size:
        k = min(lags.size, j + max(1, _BLOCK_ENTRIES // (n - int(lags[j]))))
        blocks.append(slice(j, k))
        j = k
    return blocks


def _lag_differences(windows: np.ndarray, x: np.ndarray, lags: np.ndarray, out: np.ndarray):
    """Row j: x[lags[j] + i] - x[i] for i < n - lags[0], NaN past the end of x.

    `windows[r]` is x[r : r + n] of x padded with n NaNs; the rows are written
    into the front of `out`.
    """
    width = x.size - int(lags[0])
    if lags[-1] - lags[0] == lags.size - 1:
        rows = windows[lags[0] : lags[-1] + 1, :width]
    else:
        rows = windows[lags, :width]
    return np.subtract(rows, x[:width], out=out[: lags.size * width].reshape(lags.size, width))


def holder_seminorm_path(
    p: SampledPath, exponent: float, a: float, b: float
) -> HolderReport:
    """Estimated gamma-Holder seminorm of a path over [a, b].

    The estimate is sup |p(t) - p(s)| / (t - s)^exponent over probed sample
    pairs: all pairs when at most 2048 samples fall in the window, otherwise
    a fixed stride schedule (every lag up to 64, then geometrically spaced
    lags).  It is a lower bound of the true seminorm by construction and is
    deterministic for fixed inputs.

    The sup is found from per-lag bounds, in blocks of lags.  For each lag,
    its largest |dv| over the smallest and over the largest dt**exponent of
    that lag bound its ratios from above and from below, and the largest
    lower bound is a floor under the sup.  The exact ratio |dv| / dt**exponent
    is then computed, for all pairs of a lag, only on the lags whose upper
    bound reaches that floor.  The first pass reads the values only: the
    spans of lag l lie between the sums of the l smallest and the l largest
    gaps, and the exact smallest and largest dt are read only on the lags
    that these bounds, against the exact ratio of one lag, cannot rule out;
    on uniform stamps those are about the live lags alone.  The result is
    the same sup, pair and pair count as probing every pair: the first pair
    in (lag, index) order that attains the sup is reported.
    """
    if not 0.0 < exponent <= 1.0:
        raise ValueError("exponent must lie in (0, 1]")
    ts, vals = _probe_times(p, a, b)
    n = ts.size
    if n < 2:
        raise ValueError("need at least two samples in [a, b]")

    lags = np.array(_pair_schedule(n))
    blocks = _lag_blocks(lags, n)
    win_t, win_v = (
        np.lib.stride_tricks.sliding_window_view(np.concatenate([x, np.full(n, np.nan)]), n)
        for x in (ts, vals)
    )
    buf_t, buf_v = np.empty(max(_BLOCK_ENTRIES, n)), np.empty(max(_BLOCK_ENTRIES, n))

    # A lag-l span is a sum of l gaps, so it lies between the sums of the l
    # smallest and the l largest gaps.  The lower sum may drift about l ulps
    # above the span's own rounding, which the margin of (l + 2) eps covers;
    # the upper one only ranks the lags, so it needs none.
    gaps = np.sort(np.diff(ts))
    widen = (lags + 2) * np.finfo(float).eps
    lo_pow = (np.cumsum(gaps)[lags - 1] * (1.0 - widen)) ** exponent
    hi_pow = np.cumsum(gaps[::-1])[lags - 1] ** exponent

    # pass 1: per lag, the largest |dv| (top), from the values alone
    top = np.empty(lags.size)
    for blk in blocks:
        dv = _lag_differences(win_v, vals, lags[blk], buf_v)
        np.fmax.reduce(np.abs(dv, out=dv), axis=1, out=top[blk])
    # The pair of a lag's largest |dv| has a ratio of at least
    # top / dt_max^exponent, so the sup is at least the largest of these (the
    # floor), and no ratio of a lag exceeds top / dt_min^exponent.  `loose` is
    # that ratio, exact, for the lag with the largest top / hi_pow, so it is at
    # least every lag's top / hi_pow and at most the floor.  A lag whose
    # top / lo_pow falls below it can set neither the floor nor a live lag,
    # so the exact dt_min and dt_max are read on the other lags (`cand`) only.
    # Twice the slack leaves room for the floor's own and for rounding.
    k = int(np.argmax(top / hi_pow))
    dt = _lag_differences(win_t, ts, lags[k : k + 1], buf_t)
    loose = float(top[k] / np.fmax.reduce(dt, axis=1)[0] ** exponent)
    cand = np.flatnonzero(top >= loose * (1.0 - 2.0 * _BOUND_SLACK) * lo_pow)
    dt_min, dt_max = np.empty(lags.size), np.empty(lags.size)
    for rows in np.split(cand, np.searchsorted(cand, [blk.stop for blk in blocks[:-1]])):
        if rows.size == 0:
            continue
        if rows[-1] + 1 - rows[0] <= 2 * rows.size:
            # a run of consecutive lags is read as one slice, at about half
            # the cost per row of a gather
            rows = slice(rows[0], rows[-1] + 1)
        dt = _lag_differences(win_t, ts, lags[rows], buf_t)
        dt_min[rows] = np.fmin.reduce(dt, axis=1)
        dt_max[rows] = np.fmax.reduce(dt, axis=1)
    floor = float(np.max(top[cand] / dt_max[cand] ** exponent)) * (1.0 - _BOUND_SLACK)
    live_lag = np.zeros(lags.size, dtype=bool)
    live_lag[cand] = top[cand] >= floor * dt_min[cand] ** exponent

    # pass 2: the exact ratios, whole rows, of the lags whose bound reaches the floor
    best, best_pair = -1.0, (float(ts[0]), float(ts[-1]))
    for blk in blocks:
        live = lags[blk][live_lag[blk]]
        if live.size == 0:
            continue
        dv = _lag_differences(win_v, vals, live, buf_v)
        dt = _lag_differences(win_t, ts, live, buf_t)
        np.abs(dv, out=dv)
        # the ** operator of the per-pair ratio: numpy sends exponents 0.5 and
        # 1 to sqrt and a copy, which np.power need not match bit for bit
        dt **= exponent
        dv /= dt
        row_max = np.fmax.reduce(dv, axis=1)
        row = int(np.argmax(row_max))
        if row_max[row] > best:
            best = float(row_max[row])
            i = int(np.argmax(dv[row, : n - live[row]]))
            best_pair = (float(ts[i]), float(ts[i + live[row]]))
    return HolderReport(best, exponent, best_pair, int(np.sum(n - lags)))


# ---------------------------------------------------------------------------
# descriptor-addressable generators


def _tag(fn, desc: str, finest: float = 0.0):
    fn.descriptor = desc
    fn.finest_frequency = finest
    return fn


# the one identity function: the sewing sweep writes its values, x + 0.0,
# straight into its rows instead of copying a fresh array there
_IDENTITY = _tag(lambda t: np.asarray(t, dtype=float) + 0.0, "identity")


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in descriptor: {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in descriptor: {text!r}")
    parts.append("".join(cur))
    return [p for p in parts if p]


def parse_descriptor(desc: str) -> tuple[str, dict[str, str]]:
    """Split 'name:k=v,k=v' into name and raw argument strings."""
    desc = desc.strip()
    if desc.startswith("(") and desc.endswith(")"):
        desc = desc[1:-1].strip()
    name, _, rest = desc.partition(":")
    args: dict[str, str] = {}
    if rest:
        for item in _split_top_level(rest):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"bad descriptor argument {item!r} in {desc!r}")
            args[key.strip()] = val.strip()
    return name.strip(), args


def make_function(desc: str) -> PathLike:
    """Build a one-variable function from a descriptor string.

    Supported: identity, const:c=..., linear:slope=...,intercept=...,
    monomial:p=..., sin[:freq=,phase=], cos[:freq=,phase=], sqrt,
    weierstrass:H=...,scales=...[,base=...][,phases=p0|p1|...].

    Every numeric parameter must be finite, and p, H and scales must be
    given; a NaN or infinite parameter or a missing one raises ValueError.

    Each result has a `finest_frequency`: the cells per unit length that a
    uniform grid needs to resolve it.  It is 2 |freq| for sin and cos, as
    base**scales is for a base-2 Weierstrass series (base times its highest
    frequency), and 0 for the other kinds, which have no scale.  A
    SampledPath's is one over its smallest spacing.
    """
    name, args = parse_descriptor(desc)

    def arg(key: str, default: str | None = None) -> str:
        if key not in args and default is None:
            raise ValueError(f"descriptor {desc!r} needs {key}=...")
        return args.get(key, default)

    def num(key: str, default: str | None = None) -> float:
        value = float(arg(key, default))
        if not math.isfinite(value):
            raise ValueError(f"{key}={value} in {desc!r} must be finite")
        return value

    if name == "identity":
        return _IDENTITY
    if name == "const":
        c = num("c", "1")
        return _tag(lambda t: np.full_like(np.asarray(t, dtype=float), c), desc)
    if name == "linear":
        m = num("slope", "1")
        c = num("intercept", "0")
        return _tag(lambda t: m * np.asarray(t, dtype=float) + c, desc)
    if name == "monomial":
        p = num("p")
        return _tag(lambda t: np.asarray(t, dtype=float) ** p, desc)
    if name == "sin":
        w = num("freq", "1")
        ph = num("phase", "0")
        return _tag(lambda t: np.sin(w * np.asarray(t, dtype=float) + ph), desc, 2.0 * abs(w))
    if name == "cos":
        w = num("freq", "1")
        ph = num("phase", "0")
        return _tag(lambda t: np.cos(w * np.asarray(t, dtype=float) + ph), desc, 2.0 * abs(w))
    if name == "sqrt":
        return _tag(lambda t: np.sqrt(np.asarray(t, dtype=float)), "sqrt")
    if name == "weierstrass":
        phases = None
        if "phases" in args:
            phases = [float(x) for x in args["phases"].split("|")]
        return make_weierstrass(H=num("H"), scales=int(arg("scales")), base=num("base", "2"), phases=phases)
    raise ValueError(f"unknown function descriptor {desc!r}")


# ---------------------------------------------------------------------------
# CSV format: header "t,value", '.' decimal, rows sorted by t


def read_path_csv(path) -> SampledPath:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["t", "value"]:
            raise ValueError(f"expected header 't,value' in {path}, got {header}")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    ts = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    return SampledPath(ts, vals)


def write_path_csv(path, p: SampledPath) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(p.ts, p.values):
            writer.writerow([repr(float(t)), repr(float(v))])
