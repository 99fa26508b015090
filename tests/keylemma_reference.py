"""Scalar references for the key-construction layer.

``keylemma.polygon_approx`` builds every chain vertex in one array
expression and ``keylemma.compute_bands`` encloses the small directions of
every chain unit with one array circular-order rule; the equivalence tests
compare them against these per-vertex and per-case evaluations, one unit at
a time.  ``projline._schedules`` builds the stage-2 angle schedules of all
blades in one array pass; ``angle_schedule`` is the per-direction loop it
replaces.  ``key_construction``
builds the blinds of every chain unit in one batched pass; ``unit_by_unit``
is the composition it replaces, one ``local_construction`` per unit.
``curve._golden_max`` runs one golden-section search over arrays of
brackets; ``golden_max`` is the scalar search each element must follow,
and ``vertex_distances``, ``project_disk`` and ``rigorous_pad`` are the
per-vertex, per-probe and per-grid-point loops its callers replace.
"""

from __future__ import annotations

import math

import numpy as np

from curveblinds import keylemma
from curveblinds.blinds import Caps, ConstructionError
from curveblinds.curve import DOMAIN_TOL, CurveProfile, DomainError, fiber_point
from curveblinds.geometry import Disk, Point
from curveblinds.measure import AlphaSet
from curveblinds.projline import CCW, PI, Arc, normalize


def tangent_intersection(curve: CurveProfile, y: Point, t1: float, t2: float) -> Point:
    """Intersection of the fiber tangent lines at parameters t1 and t2.

    The fiber is the graph x2 = y2 - f(y1 - x1) over x1, with slope
    f'(y1 - x1) = f'(t); tangent slopes differ since f' is injective.
    """
    q1 = fiber_point(curve, y, t1)
    q2 = fiber_point(curve, y, t2)
    s1 = curve.df(curve.clamp_t(t1))
    s2 = curve.df(curve.clamp_t(t2))
    x1 = (q2.x2 - q1.x2 + s1 * q1.x1 - s2 * q2.x1) / (s1 - s2)
    return Point(x1, q1.x2 + s1 * (x1 - q1.x1))


def chain_vertices(
    curve: CurveProfile, y: Point, subrange: tuple[float, float], n: int
) -> list[Point]:
    """The tangent chain over n partition points, one vertex at a time."""
    a1, b1 = subrange
    ts = np.linspace(a1, b1, n)
    vertices = [fiber_point(curve, y, a1)]
    for i in range(n - 1):
        vertices.append(tangent_intersection(curve, y, float(ts[i]), float(ts[i + 1])))
    vertices.append(fiber_point(curve, y, b1))
    return vertices


def compute_bands(
    curve: CurveProfile,
    x1_lo: float,
    x1_hi: float,
    a_small: AlphaSet,
    a_cover: AlphaSet,
    slack: float = 1e-7,
) -> tuple[float, float, float, float, float]:
    """Direction bands with the small set split below / above the cover midpoint.

    Three cases: the small directions straddle the cover band (the small
    band wraps through the vertical direction), lie all below it, or lie all
    above it; each case computes its two gaps with its own formula.  Returns
    the angles (cover_lo, cover_hi, small_lo, small_hi), each in [0, pi), and eps0.
    """
    if len(a_cover.components) != 1:
        raise ValueError("A_cover must be a single interval")
    for clo, chi_ in a_cover.components:
        for slo, shi in a_small.components:
            if not (shi < clo or chi_ < slo):
                raise ValueError("A_small and A_cover must be disjoint")

    clo, chi_ = a_cover.bounds
    t_lo, t_hi = clo - x1_hi, chi_ - x1_lo
    if t_lo < curve.a or t_hi > curve.b:
        raise ConstructionError("compact region leaves the strip over A_cover", stage="bands")
    cover_phis = np.array([math.atan(curve.df(t_lo)), math.atan(curve.df(t_hi))])
    small_vals = []
    for slo, shi in a_small.components:
        w_lo = max(slo - x1_hi, curve.a)
        w_hi = min(shi - x1_lo, curve.b)
        if w_lo <= w_hi:
            small_vals.append(math.atan(curve.df(w_lo)))
            small_vals.append(math.atan(curve.df(w_hi)))
    if not small_vals:
        raise ConstructionError("no admissible directions over A_small", stage="bands")
    small_phis = np.array(small_vals)

    c_lo = float(np.min(cover_phis)) - slack
    c_hi = float(np.max(cover_phis)) + slack
    c_mid = 0.5 * (c_lo + c_hi)
    below = small_phis[small_phis < c_mid]
    above = small_phis[small_phis >= c_mid]

    if below.size and above.size:
        s_lo = float(np.min(above)) - slack
        s_hi = float(np.max(below)) + slack
        gap_after_cover = s_lo - c_hi
        gap_after_small = c_lo - s_hi
    elif below.size:
        s_lo = float(np.min(below)) - slack
        s_hi = float(np.max(below)) + slack
        gap_after_small = c_lo - s_hi
        gap_after_cover = PI - (c_hi - s_lo)
    else:
        s_lo = float(np.min(above)) - slack
        s_hi = float(np.max(above)) + slack
        gap_after_cover = s_lo - c_hi
        gap_after_small = PI - (s_hi - c_lo)
    eps0 = min(gap_after_cover, gap_after_small)
    if eps0 <= 0.0:
        raise ConstructionError(
            f"inflated direction sets overlap (separation {eps0:.3g})", stage="bands"
        )
    return (*(normalize(v).angle for v in (c_lo, c_hi, s_lo, s_hi)), eps0)


def angle_schedule(theta0: float, theta_small: float, m: int, chirality: str) -> list[float]:
    """The angles of projline.angle_schedule, one normalize call per direction."""
    arc = Arc(theta0, theta_small, chirality)
    sign = 1.0 if chirality == CCW else -1.0
    steps = (normalize(arc.start.angle + sign * arc.length * k / m) for k in range(1, m))
    return [d.angle for d in (arc.start, *steps, arc.end)]


def unit_by_unit(
    curve: CurveProfile,
    y: Point,
    subrange: tuple[float, float],
    a_small: AlphaSet,
    a_cover: AlphaSet,
    eps: float,
    delta: float,
    caps: Caps,
) -> tuple[np.ndarray, list[list[int]]]:
    """key_construction's blinds and unit labels, built one chain unit at a time.

    ``delta`` is the working delta (``meta["delta"]`` of the key
    construction).  Each unit gets its bands and then one local_construction;
    the result is the concatenation of the units' blinds and the
    [chain_index, blade_count, leaf_count] label of each unit.
    """
    chain = keylemma.polygon_approx(curve, y, subrange, eps, delta / 2.0, alpha_grid=a_cover)
    pieces, units = [], []
    for ci, seg in enumerate(chain.segments()):
        lo, hi = min(seg.a.x1, seg.b.x1), max(seg.a.x1, seg.b.x1)
        bands = keylemma.compute_bands(curve, lo - delta, hi + delta, a_small, a_cover)
        local = keylemma.local_construction(curve, seg, bands, a_small, a_cover, eps, delta, caps)
        pieces.append(local.coords)
        units.append([ci, local.meta["stage1_n"], len(local)])
    return np.concatenate(pieces), units


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal fn on [lo, hi], one probe at a time."""
    h = hi - lo
    if h <= tol:
        return max(fn(lo), fn(hi))
    c = hi - _GOLDEN * h
    d = lo + _GOLDEN * h
    yc, yd = fn(c), fn(d)
    while h > tol:
        h *= _GOLDEN
        if yc > yd:
            hi, d, yd = d, c, yc
            c = hi - _GOLDEN * h
            yc = fn(c)
        else:
            lo, c, yc = c, d, yd
            d = lo + _GOLDEN * h
            yd = fn(d)
    return max(yc, yd, fn(lo), fn(hi))


def vertex_distances(curve: CurveProfile, chain: keylemma.PolyChain) -> list[float]:
    """Distance bounds of the interior chain vertices, one scalar search each."""
    y, ts = chain.source.y, chain.tangency_params.tolist()
    out = []
    for p, lo, hi in zip(chain.vertices[1:-1].tolist(), ts[:-1], ts[1:]):

        def neg_d2_at(t: float, p: list[float] = p) -> float:
            q = fiber_point(curve, y, t)
            return -((q.x1 - p[0]) ** 2 + (q.x2 - p[1]) ** 2)

        out.append(math.sqrt(-golden_max(neg_d2_at, lo, hi, 1e-13)))
    return out


def _max_over(fn, lo: float, hi: float, grid: int = 512, tol: float = 1e-12) -> float:
    if hi - lo <= tol:
        return fn(0.5 * (lo + hi))
    xs = np.linspace(lo, hi, grid)
    ys = np.array([fn(float(x)) for x in xs])
    best = float(np.max(ys))
    for i in range(grid):
        left = ys[i - 1] if i > 0 else -math.inf
        right = ys[i + 1] if i < grid - 1 else -math.inf
        if ys[i] >= left and ys[i] >= right:
            blo = xs[max(i - 1, 0)]
            bhi = xs[min(i + 1, grid - 1)]
            best = max(best, golden_max(fn, float(blo), float(bhi), tol))
    return best


def project_disk(curve: CurveProfile, alpha: float, disk: Disk) -> tuple[float, float]:
    """curve.project_disk with one scalar evaluation per seed point and probe."""
    lo, hi = curve.strip(alpha)
    c1, c2, r = disk.center.x1, disk.center.x2, disk.radius
    x_lo = max(lo, c1 - r)
    x_hi = min(hi, c1 + r)
    if x_lo > x_hi + DOMAIN_TOL:
        raise DomainError("disk misses the strip")
    x_hi = max(x_lo, x_hi)

    def half_width(x1: float) -> float:
        return math.sqrt(max(r * r - (x1 - c1) ** 2, 0.0))

    def upper(x1: float) -> float:
        return c2 + half_width(x1) + curve.f(curve.clamp_t(alpha - x1))

    def lower_neg(x1: float) -> float:
        return -(c2 - half_width(x1) + curve.f(curve.clamp_t(alpha - x1)))

    return (-_max_over(lower_neg, x_lo, x_hi), _max_over(upper, x_lo, x_hi))


def rigorous_pad(
    curve: CurveProfile, y: Point, subrange: tuple[float, float], a_cover: AlphaSet, shift: float
) -> float:
    """keylemma._rigorous_pad, one grid point and subrange end at a time."""
    slowest = math.inf
    for alpha in a_cover.grid():
        for t in subrange:
            rate = abs(
                curve.df(curve.clamp_t(float(alpha) - y.x1 + t))
                - curve.df(curve.clamp_t(t))
            )
            slowest = min(slowest, rate)
    if not math.isfinite(slowest) or slowest <= 0.0:
        raise ValueError("cannot pad subrange: projected endpoints are stationary")
    return 3.0 * shift / slowest
