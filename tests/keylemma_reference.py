"""Scalar references for the key-construction layer.

``keylemma.polygon_approx`` builds every chain vertex in one array
expression and ``keylemma.compute_bands`` encloses the small directions with
one circular-order rule on ``Arc.offsets``; the equivalence tests compare
them against these per-vertex and per-case evaluations.  ``key_construction``
builds the blinds of every chain unit in one batched pass; ``unit_by_unit``
is the composition it replaces, one ``local_construction`` per unit.
"""

from __future__ import annotations

import math

import numpy as np

from curveblinds import keylemma
from curveblinds.blinds import Caps, ConstructionError
from curveblinds.curve import CurveProfile, fiber_point
from curveblinds.geometry import Point
from curveblinds.keylemma import AngleBands
from curveblinds.measure import AlphaSet
from curveblinds.projline import PI, normalize


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
) -> AngleBands:
    """Direction bands with the small set split below / above the cover midpoint.

    Three cases: the small directions straddle the cover band (the small
    band wraps through the vertical direction), lie all below it, or lie all
    above it; each case computes its two gaps with its own formula.
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
    return AngleBands(
        cover_lo=normalize(c_lo),
        cover_hi=normalize(c_hi),
        small_lo=normalize(s_lo),
        small_hi=normalize(s_hi),
        eps0=eps0,
    )


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
