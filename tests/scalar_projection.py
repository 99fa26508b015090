"""Scalar reference for the segment projection, one segment and one alpha at a time.

``measure.project_blinds_grid`` is the only projection of segments in the
package; the kernel-equivalence tests compare it against this independent
per-segment evaluation.
"""

from curveblinds.curve import DOMAIN_TOL, CurveProfile
from curveblinds.geometry import Segment
from curveblinds.measure import EMPTY, IntervalUnion, union_of


def project_segment(curve: CurveProfile, alpha: float, seg: Segment) -> IntervalUnion:
    """Exact image interval of Phi_alpha over seg cap strip (empty if disjoint).

    Along the segment, Phi_alpha has monotone derivative in the parameter, so
    extrema sit at the clipped endpoints or at the unique interior critical
    point where f'(alpha - x1) equals the segment slope.
    """
    lo, hi = curve.strip(alpha)
    x1a, x2a = seg.a.x1, seg.a.x2
    dx1 = seg.b.x1 - x1a
    dx2 = seg.b.x2 - x2a

    if abs(dx1) <= DOMAIN_TOL:
        if not (lo - DOMAIN_TOL <= x1a <= hi + DOMAIN_TOL):
            return EMPTY
        base = curve.f(curve.clamp_t(alpha - x1a))
        v0, v1 = x2a + base, x2a + dx2 + base
        return union_of([(min(v0, v1), max(v0, v1))])

    # parameter range [t0, t1] in [0, 1] with x1(t) inside the strip
    if dx1 > 0.0:
        t0 = (lo - x1a) / dx1
        t1 = (hi - x1a) / dx1
    else:
        t0 = (hi - x1a) / dx1
        t1 = (lo - x1a) / dx1
    t0 = max(0.0, t0)
    t1 = min(1.0, t1)
    if t0 > t1:
        return EMPTY

    def value(t: float) -> float:
        x1 = x1a + t * dx1
        return x2a + t * dx2 + curve.f(curve.clamp_t(alpha - x1))

    candidates = [value(t0), value(t1)]
    slope = dx2 / dx1
    dlo, dhi = curve.df_range()
    if dlo - 1e-9 <= slope <= dhi + 1e-9:
        tc_curve = curve.df_inv(slope)
        tc = (alpha - tc_curve - x1a) / dx1
        if t0 < tc < t1:
            candidates.append(value(tc))
    return union_of([(min(candidates), max(candidates))])


def project_segments(curve: CurveProfile, alpha: float, segs) -> IntervalUnion:
    """Canonical union of project_segment over segs."""
    return union_of(iv for s in segs for iv in project_segment(curve, alpha, s).intervals)
