"""Scalar references: tuple interval unions and projections, one alpha at a time.

``measure`` keeps interval unions as arrays, a batch of rows at a time, and
``measure.project_blinds_grid`` is the only projection of segments in the
package; the equivalence tests compare both against these independent
per-alpha, per-interval evaluations.  ``rows_of``, ``to_scalar`` and
``batch_of`` convert between the two representations, and
``canonical_rows`` canonicalizes (rows x n) interval arrays in copies with
the projection kernel's canonicalizer, ``measure._canonical_groups``;
``argsort_canonical_rows`` canonicalizes by
sorting whole intervals, its reference.  ``general_projection_grid`` runs
the kernel's general evaluation on every segment, the bit-exact reference
for its endpoint-only one.  ``scalar_exp`` is a custom profile built from
the scalar-only ``math`` functions, wrapped to evaluate arrays elementwise.
``records`` and ``report_bits`` read a certificate report's per-alpha
record array as dicts and as bytes.  ``segments_of`` turns (ax, ay, bx, by)
rows into the Segment objects these references take, and
``max_endpoint_distance`` measures rows against a segment with
Segment.distance_to_point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from curveblinds import measure
from curveblinds.curve import DOMAIN_TOL, CurveProfile
from curveblinds.geometry import Point, Segment
from curveblinds.measure import BUDGET, MERGE_TOL, FiberArc


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """A scalar-only fn wrapped to take arrays too: one call per element."""

    def wrapped(t):
        if np.ndim(t) == 0:
            return fn(t)
        return np.array([fn(v) for v in np.ravel(t).tolist()]).reshape(np.shape(t))

    return wrapped


def scalar_exp() -> CurveProfile:
    """exp on [0, 1] from math.exp / math.log, one call per array element."""
    return CurveProfile(
        f=_elementwise(math.exp), df=_elementwise(math.exp), df_inverse=_elementwise(math.log),
        a=0.0, b=1.0, df_bound=math.exp(1.0), name="scalar_exp",
    )


@dataclass(frozen=True)
class IntervalUnion:
    """A canonical finite union of disjoint closed intervals [lo, hi]."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def inflate(self, r: float) -> "IntervalUnion":
        """Thicken every interval by r on both sides (then re-canonicalize)."""
        if r < 0.0:
            raise ValueError(f"inflation radius must be >= 0, got {r!r}")
        return union_of([(lo - r, hi + r) for lo, hi in self.intervals])

    def erode(self, r: float) -> "IntervalUnion":
        """Shrink every interval by r on both sides, dropping emptied ones."""
        if r < 0.0:
            raise ValueError(f"erosion radius must be >= 0, got {r!r}")
        return union_of(
            [(lo + r, hi - r) for lo, hi in self.intervals if hi - lo > 2.0 * r]
        )

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        """The closure of self minus other, as a canonical union."""
        pieces: list[tuple[float, float]] = []
        for lo, hi in self.intervals:
            cur = lo
            for olo, ohi in other.intervals:
                if ohi <= cur or olo >= hi:
                    continue
                if olo > cur:
                    pieces.append((cur, olo))
                cur = max(cur, ohi)
                if cur >= hi:
                    break
            if cur < hi:
                pieces.append((cur, hi))
        return union_of(pieces)


EMPTY = IntervalUnion(())


def union_of(
    intervals: Iterable[Sequence[float]], merge_tol: float = MERGE_TOL
) -> IntervalUnion:
    """Canonicalize a collection of closed intervals (merge overlaps/dust)."""
    items = []
    for iv in intervals:
        lo, hi = float(iv[0]), float(iv[1])
        if hi < lo:
            raise ValueError(f"inverted interval [{lo!r}, {hi!r}]")
        items.append((lo, hi))
    if not items:
        return EMPTY
    items.sort()
    merged = [items[0]]
    for lo, hi in items[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi + merge_tol:
            if hi > mhi:
                merged[-1] = (mlo, hi)
        else:
            merged.append((lo, hi))
    return IntervalUnion(tuple(merged))


def contains(u: IntervalUnion, target: IntervalUnion, margin: float = 0.0) -> bool:
    """True iff every point of target is within margin of u's covered set."""
    if margin < 0.0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    inflated = u.inflate(margin) if margin > 0.0 else u
    for lo, hi in target.intervals:
        ok = False
        for ulo, uhi in inflated.intervals:
            if ulo <= lo and hi <= uhi:
                ok = True
                break
            if ulo > lo:
                break
        if not ok:
            return False
    return True


def rows_of(batch) -> list[tuple[tuple[float, float], ...]]:
    """The rows of an array union as tuples of (lo, hi) pairs, comparable
    with ``==`` to the reference's ``intervals``."""
    rows: list[list[tuple[float, float]]] = [[] for _ in range(batch.rows)]
    for row, lo, hi in zip(batch.row.tolist(), batch.lo.tolist(), batch.hi.tolist()):
        rows[row].append((lo, hi))
    return [tuple(row) for row in rows]


def to_scalar(one_row) -> IntervalUnion:
    """A one-row array union as a reference union."""
    (intervals,) = rows_of(one_row)
    return IntervalUnion(intervals)


def batch_of(rows: Sequence[Sequence[Sequence[float]]]):
    """An array union with one row per list of intervals (canonicalized)."""
    width = max([1] + [len(row) for row in rows])
    los = np.full((len(rows), width), np.inf)
    his = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        for c, (lo, hi) in enumerate(row):
            los[r, c], his[r, c] = lo, hi
    return canonical_rows(los, his)


def canonical_rows(los: np.ndarray, his: np.ndarray):
    """Canonicalize each row of (rows x n) interval arrays; lo = +inf marks a gap.

    The inputs stay as given: the kernel's canonicalizer runs on copies in
    buffers of the kernel's size, with each gap's hi set to +inf as the
    kernel sets it.  The buffers' spare room and the scratch arrays start
    as a non-gap interval [-1, 1] and True, so a canonicalizer that read
    them without writing them first would change the rows.
    """
    rows, n = los.shape
    size = rows * n + measure._BLOCK
    lo_buf, hi_buf, reach = np.full((3, size), -1.0)
    hi_buf[:] = 1.0
    cuts = np.ones(size, dtype=bool)
    lo_buf[: rows * n] = los.ravel()
    hi_buf[: rows * n] = np.where(los == np.inf, np.inf, his).ravel()
    return measure._canonical_groups(lo_buf, hi_buf, rows, n, cuts, reach)


def argsort_canonical_rows(los: np.ndarray, his: np.ndarray):
    """Canonicalize each row of (rows x n) interval arrays; lo = +inf marks a gap.

    The intervals of each row are sorted by lo, and a running maximum of
    their hi decides where a group starts: where an interval does not touch
    the hull of those before it.  maximum.reduceat takes each group's hi over
    runs cut at every group start and every row start; the gaps sort to the
    end of their row, each starting a run that is dropped.
    """
    rows, n = los.shape
    order = np.argsort(los, axis=1)
    order += np.arange(0, rows * n, n)[:, None]
    order = order.ravel()
    los = los.ravel()[order]
    his = his.ravel()[order]
    running = np.maximum.accumulate(his.reshape(rows, n), axis=1).ravel()
    running += MERGE_TOL
    cuts = np.empty(rows * n, dtype=bool)
    np.greater(los[1:], running[:-1], out=cuts[1:])
    cuts[::n] = True
    starts = np.flatnonzero(cuts)
    kept = los[starts] < np.inf
    group_hi = np.maximum.reduceat(his, starts)[kept]
    return measure.IntervalUnion(los[starts[kept]], group_hi, starts[kept] // n, rows)


def general_projection_grid(curve: CurveProfile, alphas: Sequence[float], blinds):
    """measure.project_blinds_grid with the general evaluation on every segment.

    Strip window, validity, clipping and the critical-point test run on every
    segment at every alpha, batched and stacked as the kernel does, with the
    same float operations in the same order.
    """
    coords = blinds.coords
    ax, ay = coords[:, 0], coords[:, 1]
    dx1 = coords[:, 2] - ax
    dx2 = coords[:, 3] - ay
    vertical = np.abs(dx1) <= DOMAIN_TOL
    safe_dx1 = np.where(vertical, 1.0, dx1)
    dlo, dhi = curve.df_range()
    slope = dx2 / safe_dx1
    has_crit = ~vertical & (slope >= dlo - 1e-9) & (slope <= dhi + 1e-9)
    tc_curve = np.full(len(coords), np.nan)
    tc_curve[has_crit] = curve.df_inv(slope[has_crit])

    def value(al: np.ndarray, t: np.ndarray) -> np.ndarray:
        v = t * dx1
        v += ax
        np.subtract(al, v, out=v)
        fx = curve.f(np.clip(v, curve.a, curve.b, out=v))
        np.multiply(t, dx2, out=v)
        v += ay
        v += fx
        return v

    alphas = np.asarray(alphas, dtype=float)
    rows = max(1, BUDGET // len(coords))
    pending, widest = [], 0
    for first in range(0, len(alphas), rows):
        al = alphas[first : first + rows, None]
        lo, hi = curve.strip(al)
        bound_lo = (lo - ax) / safe_dx1
        t1 = (hi - ax) / safe_dx1
        t0 = np.minimum(bound_lo, t1)
        np.maximum(bound_lo, t1, out=t1)
        valid = np.where(
            vertical,
            (ax >= lo - DOMAIN_TOL) & (ax <= hi + DOMAIN_TOL),
            (t1 >= 0.0) & (t0 <= 1.0),
        )
        np.clip(t0, 0.0, 1.0, out=t0)
        np.clip(t1, 0.0, 1.0, out=t1)
        np.copyto(t0, 0.0, where=vertical)
        np.copyto(t1, 1.0, where=vertical)
        v0 = value(al, t0)
        his = value(al, t1)
        los = np.minimum(v0, his)
        np.maximum(v0, his, out=his)
        tc = (al - tc_curve - ax) / safe_dx1
        inside = (tc > t0) & (tc < t1)
        if inside.any():
            vc = value(al, tc)
            np.minimum(los, vc, out=los, where=inside)
            np.maximum(his, vc, out=his, where=inside)
        np.copyto(los, np.inf, where=~valid)
        batch = canonical_rows(los, his)
        count = int(np.bincount(batch.row, minlength=1).max())
        if pending and sum(b.rows for b in pending + [batch]) * max(widest, count) > BUDGET:
            yield measure.IntervalUnion.stack(pending)
            pending, widest = [], 0
        pending.append(batch)
        widest = max(widest, count)
    if pending:
        yield measure.IntervalUnion.stack(pending)


def segments_of(coords) -> list[Segment]:
    """The (ax, ay, bx, by) rows of an array as Segment objects."""
    return [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in np.asarray(coords).tolist()]


def max_endpoint_distance(coords, seg: Segment) -> float:
    """The largest distance from an endpoint of the rows to seg."""
    points = np.asarray(coords).reshape(-1, 2).tolist()
    return max(seg.distance_to_point(Point(x, y)) for x, y in points)


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


def project_fiber_arc(curve: CurveProfile, alpha: float, arc: FiberArc) -> IntervalUnion:
    """Image of Phi_alpha over the fiber arc clipped to the strip.

    Along the fiber, Phi_alpha(t) = y2 - f(t) + f(t + (alpha - y1)); its
    derivative f'(t + s) - f'(t) has a fixed sign (f' strictly monotone), so
    the image endpoints sit at the extreme admissible parameters.
    """
    s = alpha - arc.y.x1
    # strip constraint: x1 = y1 - t in [alpha - b, alpha - a]  <=>  t in [a - s, b - s]
    t0 = max(arc.lo, curve.a - s, curve.a)
    t1 = min(arc.hi, curve.b - s, curve.b)
    if t0 > t1 + DOMAIN_TOL:
        return EMPTY
    t1 = max(t0, t1)

    def value(t: float) -> float:
        return arc.y.x2 - curve.f(curve.clamp_t(t)) + curve.f(curve.clamp_t(t + s))

    v0, v1 = value(t0), value(t1)
    return union_of([(min(v0, v1), max(v0, v1))])


def records(per_alpha) -> list[dict]:
    """A report's per-alpha record array as one dict per alpha, of Python values."""
    return [dict(zip(per_alpha.dtype.names, row)) for row in per_alpha.tolist()]


def report_bits(report) -> tuple:
    """A report's fields, with its per-alpha records as their dtype and bytes,
    so that == compares the records bit for bit."""
    fields = dict(vars(report))
    per_alpha = fields.pop("per_alpha")
    return fields, per_alpha.dtype, per_alpha.tobytes()
