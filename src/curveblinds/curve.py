"""The curve Gamma = graph(f) and the projection family Phi_alpha.

Phi_alpha is defined on the strip [alpha-b, alpha-a] x R by
Phi_alpha(x) = x2 + f(alpha - x1); its fibers are translated reflected
copies of Gamma.  The curve profile carries f, f' and the inverse of f',
all evaluated elementwise on numpy arrays, the domain [a, b] and a bound
on |f'|; the sense of f' is read off samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Disk, Point
from .projline import Direction, normalize

#: Tolerance for strip-membership tests at the boundary.
DOMAIN_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


class DomainError(ValueError):
    """A point lies outside the strip on which Phi_alpha is defined."""


@dataclass(frozen=True, eq=False)
class CurveProfile:
    """A curve Gamma = graph(f) on [a, b] with strictly monotone f'.

    f, df = f' and df_inverse = (f')^-1 take a float or a numpy array, which
    they evaluate elementwise, as numpy expressions do; wrap a scalar-only
    function before building a profile.  The constructor evaluates each on
    129 samples of [a, b] in one array call: f' must be strictly increasing
    or strictly decreasing there (the sense is read off the samples) and
    df_inverse must invert it to 1e-10.  df_bound must be a true bound on |f'|
    over [a, b]: the padding of the rigorous certificates rests on it, and
    the constructor checks it only at the samples.
    """

    f: Callable
    df: Callable
    df_inverse: Callable
    a: float
    b: float
    df_bound: float
    name: str = "custom"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"invalid domain [{self.a!r}, {self.b!r}]")
        ts = np.linspace(self.a, self.b, 129)
        _sample(self.f, "f", ts)  # f: the array contract only
        ds = _sample(self.df, "df", ts)
        diffs = np.diff(ds)
        if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            raise ValueError("df is not strictly monotone on the sampled grid")
        if float(np.max(np.abs(ds))) > self.df_bound + 1e-9:
            raise ValueError("df_bound does not dominate |df| on the sampled grid")
        miss = ~(np.abs(_sample(self.df_inverse, "df_inverse", ds) - ts) <= 1e-10)
        if miss.any():
            raise ValueError(f"df_inverse(df(t)) round-trip misses 1e-10 at t={float(ts[miss][0])}")

    # -- derivative range and inversion -----------------------------------

    def df_range(self) -> tuple[float, float]:
        """The (closed) range of f' on [a, b]."""
        lo, hi = self.df(self.a), self.df(self.b)
        return (lo, hi) if lo <= hi else (hi, lo)

    def df_inv(self, u: float | np.ndarray) -> float | np.ndarray:
        """Solve f'(t) = u on [a, b], elementwise; u is clipped to the range of f'."""
        lo, hi = self.df_range()
        return np.clip(self.df_inverse(np.clip(u, lo, hi)), self.a, self.b)

    # -- strip helpers ----------------------------------------------------

    def strip(self, alpha: float) -> tuple[float, float]:
        return (alpha - self.b, alpha - self.a)

    def in_strip(self, alpha: float, x1: float, tol: float = DOMAIN_TOL) -> bool:
        lo, hi = self.strip(alpha)
        return lo - tol <= x1 <= hi + tol

    def clamp_t(self, t: float) -> float:
        return min(self.b, max(self.a, t))

    def clearance(self, x1_lo: float, x1_hi: float, alphas: tuple[float, float]) -> float:
        """How far [x1_lo, x1_hi] lies inside every strip over alphas = (min, max); < 0 if not."""
        amin, amax = alphas
        return min(x1_lo - (amax - self.b), (amin - self.a) - x1_hi)


def _sample(fn: Callable, name: str, values: np.ndarray) -> np.ndarray:
    """fn over the samples, in one call that must evaluate them elementwise."""
    try:
        out = fn(values)
    except (TypeError, ValueError) as exc:
        out = exc
    if not (isinstance(out, np.ndarray) and out.shape == values.shape):
        raise ValueError(f"{name} must evaluate numpy arrays elementwise, got {out!r:.60}")
    return out


# -- operations on Phi_alpha ----------------------------------------------


def _require_in_strip(curve: CurveProfile, alpha: float, x1: float) -> None:
    if not curve.in_strip(alpha, x1):
        lo, hi = curve.strip(alpha)
        raise DomainError(
            f"x1={x1!r} outside the strip [{lo!r}, {hi!r}] of Phi_alpha, alpha={alpha!r}"
        )


def eval_phi(curve: CurveProfile, alpha: float, x: Point) -> float:
    """Phi_alpha(x) = x2 + f(alpha - x1); the height of the image on {alpha} x R."""
    _require_in_strip(curve, alpha, x.x1)
    return x.x2 + curve.f(curve.clamp_t(alpha - x.x1))


def tangent_direction(curve: CurveProfile, alpha: float, x: Point) -> Direction:
    """theta_alpha(x): the unoriented direction of (1, f'(alpha - x1))."""
    _require_in_strip(curve, alpha, x.x1)
    return normalize(math.atan(curve.df(curve.clamp_t(alpha - x.x1))))


def grad_phi(curve: CurveProfile, alpha: float, x: Point) -> tuple[float, float]:
    """The gradient (-f'(alpha - x1), 1) of Phi_alpha at x."""
    _require_in_strip(curve, alpha, x.x1)
    return (-curve.df(curve.clamp_t(alpha - x.x1)), 1.0)


def fiber_point(curve: CurveProfile, y: Point, t: float) -> Point:
    """The point of the fiber Phi_{y.x1}^{-1}(y.x2) = y - Gamma at parameter t."""
    if not curve.a - DOMAIN_TOL <= t <= curve.b + DOMAIN_TOL:
        raise ValueError(f"fiber parameter {t!r} outside [{curve.a}, {curve.b}]")
    t = curve.clamp_t(t)
    return Point(y.x1 - t, y.x2 - curve.f(t))


def diff_interval(
    curve: CurveProfile, subrange: tuple[float, float], s: float
) -> tuple[float, float]:
    """The interval I_s = {f(t+s) - f(t)} over the admissible t-range.

    The map t -> f(t+s) - f(t) is monotone (f' strictly monotone), so the
    interval endpoints sit at the extreme admissible parameters
    t = max(a-s, a') and t = min(b-s, b').
    """
    a1, b1 = subrange
    if not (curve.a - DOMAIN_TOL <= a1 <= b1 <= curve.b + DOMAIN_TOL):
        raise ValueError(f"invalid subrange {subrange!r} for [{curve.a}, {curve.b}]")
    s_lo, s_hi = curve.a - b1, curve.b - a1
    if not s_lo - DOMAIN_TOL <= s <= s_hi + DOMAIN_TOL:
        raise ValueError(f"shift {s!r} outside [{s_lo}, {s_hi}]")
    t0 = max(curve.a - s, a1)
    t1 = min(curve.b - s, b1)
    v0 = curve.f(curve.clamp_t(t0 + s)) - curve.f(curve.clamp_t(t0))
    v1 = curve.f(curve.clamp_t(t1 + s)) - curve.f(curve.clamp_t(t1))
    return (v0, v1) if v0 <= v1 else (v1, v0)


# -- project_disk ----------------------------------------------------------


def _first_max(*values: np.ndarray) -> np.ndarray:
    """Python's max(*values), elementwise: the first value no later one exceeds."""
    return functools.reduce(lambda best, v: np.where(v > best, v, best), values)


def _golden_max(fn: Callable, lo: np.ndarray, hi: np.ndarray, tol: float,
                stop: Optional[Callable] = None) -> np.ndarray:
    """Golden-section maximization of a unimodal function on each [lo[i], hi[i]].

    lo and hi are float arrays; fn(x, i) evaluates element i[j]'s function at
    x[..., j].  Each element keeps the probes and bits of one scalar search on
    its bracket, and all still searching share one fn call per step.  One
    whose best probe passes stop(best) leaves with it: the best only rises.
    """
    out, k, h = np.empty(lo.shape), np.arange(lo.size), hi - lo
    if not k.size:
        return out
    # a bracket within tol probes its ends: max(yc, yd, f(lo), f(hi)) = max(f(lo), f(hi))
    c, d = np.where(h > tol, hi - _GOLDEN * h, lo), np.where(h > tol, lo + _GOLDEN * h, hi)
    yc, yd = fn(np.stack([c, d]), k)
    while True:
        hit = np.zeros(k.size, dtype=bool) if stop is None else stop(_first_max(yc, yd))
        end = ~hit & ~(h > tol)
        if not (go := ~(hit | end)).all():
            out[k[hit]] = _first_max(yc[hit], yd[hit])
            if end.any():
                ends = fn(np.stack([lo[end], hi[end]]), k[end])
                out[k[end]] = _first_max(yc[end], yd[end], *ends)
            k, lo, hi, h, c, d, yc, yd = (v[go] for v in (k, lo, hi, h, c, d, yc, yd))
            if not k.size:
                return out
        h *= _GOLDEN
        left = yc > yd
        # left: hi, d, yd = d, c, yc and a new c; else lo, c, yc = c, d, yd and a new d
        hi, lo = np.where(left, d, hi), np.where(left, lo, c)
        new = np.where(left, hi - _GOLDEN * h, lo + _GOLDEN * h)
        (y_new,) = fn(new[None], k)
        c, yc, d, yd = np.where(left, [new, y_new, c, yc], [d, yd, new, y_new])


def _max_over(fn: Callable, lo: float, hi: float, params: np.ndarray, grid: int = 512,
              tol: float = 1e-12) -> np.ndarray:
    """Global max over [lo, hi] of each piecewise-unimodal x -> fn(x, p), p in params.

    fn takes arrays of x and p, elementwise.  Seed grid, then one golden
    refinement around every local maximum of every p's seeded values.
    """
    if hi - lo <= tol:
        return fn(np.array(0.5 * (lo + hi)), params)
    xs = np.linspace(lo, hi, grid)
    ys = fn(xs, params[:, None])
    padded = np.pad(ys, ((0, 0), (1, 1)), constant_values=-math.inf)
    owner, peak = np.nonzero((ys >= padded[:, :-2]) & (ys >= padded[:, 2:]))
    refined = _golden_max(lambda x, i: fn(x, params[owner[i]]), xs[np.maximum(peak - 1, 0)],
                          xs[np.minimum(peak + 1, grid - 1)], tol)
    return np.array([_first_max(np.max(ys[j]), *refined[owner == j]) for j in range(len(params))])


def project_disk(curve: CurveProfile, alpha: float, disk: Disk) -> tuple[float, float]:
    """The closed interval Phi_alpha(D cap strip) for a disk D.

    For fixed x1 the disk contributes x2 in [c2 - h(x1), c2 + h(x1)] with
    h(x1) = sqrt(r^2 - (x1-c1)^2), so the image endpoints are the extrema of
    c2 +/- h(x1) + f(alpha - x1) over the clipped x1-range.  The image of the
    open disk differs from this closed interval in at most the two endpoints.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    lo, hi = curve.strip(alpha)
    c1, c2, r = disk.center.x1, disk.center.x2, disk.radius
    x_lo = max(lo, c1 - r)
    x_hi = min(hi, c1 + r)
    if x_lo > x_hi + DOMAIN_TOL:
        raise DomainError(
            f"disk at ({c1!r}, {c2!r}) r={r!r} misses the strip [{lo!r}, {hi!r}]"
        )
    x_hi = max(x_lo, x_hi)

    def image(x1: np.ndarray, sign: np.ndarray) -> np.ndarray:
        # sign * (c2 + sign * h(x1) + f(alpha - x1)): the top for sign 1, -bottom for -1
        h = np.sqrt(np.maximum(r * r - np.float_power(x1 - c1, 2.0), 0.0))
        return sign * (c2 + sign * h + curve.f(np.clip(alpha - x1, curve.a, curve.b)))

    bottom, top = _max_over(image, x_lo, x_hi, np.array([-1.0, 1.0]))
    return -float(bottom), float(top)


# -- built-in curve library -------------------------------------------------


def _make_parabola(a: float, b: float) -> CurveProfile:
    return CurveProfile(
        f=lambda t: t * t, df=lambda t: 2.0 * t, df_inverse=lambda u: u / 2.0,
        a=a, b=b, df_bound=max(abs(2.0 * a), abs(2.0 * b)), name="parabola",
    )


def _make_quarter_circle(a: float, b: float) -> CurveProfile:
    if not -1.0 < a < b < 1.0:
        raise ValueError(f"quarter-circle bounds must lie inside (-1, 1): [{a}, {b}]")
    return CurveProfile(
        f=lambda t: np.sqrt(1.0 - t * t),
        df=lambda t: -t / np.sqrt(1.0 - t * t),
        df_inverse=lambda u: -u / np.sqrt(1.0 + u * u),
        a=a, b=b, name="quarter_circle",
        df_bound=max(abs(a), abs(b)) / math.sqrt(1.0 - max(abs(a), abs(b)) ** 2),
    )


def _make_exp(a: float, b: float) -> CurveProfile:
    return CurveProfile(
        f=np.exp, df=np.exp, df_inverse=np.log, a=a, b=b, df_bound=math.exp(b), name="exp"
    )


_BUILTINS: dict[str, tuple[Callable[[float, float], CurveProfile], tuple[float, float]]] = {
    "parabola": (_make_parabola, (0.0, 1.0)),
    "quarter_circle": (_make_quarter_circle, (-0.7, 0.7)),
    "exp": (_make_exp, (0.0, 1.0)),
}


def builtin_curve(name: str, bounds: Optional[tuple[float, float]] = None) -> CurveProfile:
    """Instantiate a built-in curve profile, optionally with custom [a, b]."""
    try:
        factory, default_bounds = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown curve {name!r}; available: {sorted(_BUILTINS)}") from None
    a, b = bounds if bounds is not None else default_bounds
    return factory(a, b)


def builtin_curve_names() -> list[str]:
    return sorted(_BUILTINS)
