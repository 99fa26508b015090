"""1-D Lebesgue measure engine: interval unions and Phi_alpha projections.

Projections of segments, blind sets, and fiber arcs all land on a vertical
line {alpha} x R; their images are finite unions of closed intervals, which
this module represents canonically (sorted, disjoint) and measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .curve import DOMAIN_TOL, CurveProfile
from .geometry import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .blinds import BlindSet

#: Gaps below this merge during canonicalization (suppresses float dust).
MERGE_TOL = 1e-12

#: Elements per (rows x n) batch in project_blinds_grid: a set of n segments
#: projects max(1, BUDGET // n) alphas per batch, so small sets share numpy's
#: per-call cost among many alphas and large ones hold one row at a time.
BUDGET = 4096


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


def _canonical_rows(
    los: np.ndarray, his: np.ndarray, merge_tol: float = MERGE_TOL
) -> list[IntervalUnion]:
    """Canonicalize each row of (rows x n) interval arrays; lo = +inf marks a gap.

    One sort, running max and maximum.reduceat serve every row: a reduceat
    run is cut at every group start and every row start, and the marked
    entries sort to the end of their row, each starting a run that is dropped.
    """
    rows, n = los.shape
    if n == 0:
        return [EMPTY] * rows
    order = np.argsort(los, axis=1)
    order += np.arange(0, rows * n, n)[:, None]
    order = order.ravel()
    los = los.ravel()[order]
    his = his.ravel()[order]
    del order
    running = np.maximum.accumulate(his.reshape(rows, n), axis=1).ravel()
    running += merge_tol
    # a new group starts where the interval does not touch the running hull
    cuts = np.empty(rows * n, dtype=bool)
    np.greater(los[1:], running[:-1], out=cuts[1:])
    del running
    cuts[::n] = True
    starts = np.flatnonzero(cuts)
    kept = los[starts] < np.inf
    group_lo = los[starts[kept]].tolist()
    group_hi = np.maximum.reduceat(his, starts)[kept].tolist()
    out = []
    end = 0
    for count in np.bincount(starts[kept] // n, minlength=rows).tolist():
        begin, end = end, end + count
        out.append(IntervalUnion(tuple(zip(group_lo[begin:end], group_hi[begin:end]))))
    return out


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


# -- alpha parameter sets ---------------------------------------------------


@dataclass(frozen=True)
class AlphaSet:
    """A finite union of disjoint closed alpha-intervals with a sample grid."""

    components: tuple[tuple[float, float], ...]
    grid_step: float

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("alpha set needs at least one component")
        if not (math.isfinite(self.grid_step) and self.grid_step > 0.0):
            raise ValueError(f"grid step must be positive, got {self.grid_step!r}")
        prev_hi = -math.inf
        for lo, hi in self.components:
            if hi < lo:
                raise ValueError(f"inverted component [{lo!r}, {hi!r}]")
            if lo <= prev_hi:
                raise ValueError("alpha components must be sorted and disjoint")
            prev_hi = hi

    @classmethod
    def from_intervals(
        cls, components: Iterable[Sequence[float]], points_per_component: int = 200
    ) -> "AlphaSet":
        comps = tuple(sorted((float(c[0]), float(c[1])) for c in components))
        width = max((hi - lo for lo, hi in comps), default=0.0)
        n = max(2, points_per_component)
        step = width / (n - 1) if width > 0.0 else 1.0
        return cls(comps, step)

    @classmethod
    def interval(cls, lo: float, hi: float, points: int = 200) -> "AlphaSet":
        return cls.from_intervals([(lo, hi)], points)

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.components[0][0], self.components[-1][1])

    def contains_alpha(self, alpha: float, tol: float = 0.0) -> bool:
        return any(lo - tol <= alpha <= hi + tol for lo, hi in self.components)

    def grid(self) -> np.ndarray:
        """All certification grid points, sorted; spacing <= grid_step."""
        pieces = []
        for lo, hi in self.components:
            if hi <= lo:
                pieces.append(np.array([lo]))
            else:
                n = int(math.ceil((hi - lo) / self.grid_step)) + 1
                pieces.append(np.linspace(lo, hi, n))
        return np.concatenate(pieces)


# -- projections ------------------------------------------------------------


@dataclass(frozen=True)
class FiberArc:
    """A sub-arc of the fiber y - Gamma, parametrized by t in [lo, hi]."""

    y: Point
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"empty fiber arc parameter range [{self.lo!r}, {self.hi!r}]")


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


def project_blinds_grid(
    curve: CurveProfile, alphas: Sequence[float], blinds: "BlindSet"
) -> Iterator[IntervalUnion]:
    """Yield project_blinds(curve, alpha, blinds) for each alpha in turn.

    The one evaluation of Phi_alpha on segments.  Along a segment, Phi_alpha
    has monotone derivative in the parameter, so each image interval is
    spanned by the values at the strip-clipped endpoints and at the unique
    interior critical point where f'(alpha - x1) equals the segment slope.
    The alpha-independent segment terms are computed once, then
    max(1, BUDGET // n) alphas at a time are projected as (rows x n) arrays.
    Every element goes through the same float operations whatever the batch
    size, so batching changes no bit of the result.
    """
    coords = blinds.coords
    ax, ay = coords[:, 0], coords[:, 1]
    dx1 = coords[:, 2] - ax
    dx2 = coords[:, 3] - ay
    vertical = np.abs(dx1) <= DOMAIN_TOL
    safe_dx1 = np.where(vertical, 1.0, dx1)
    # the interior critical point, where f'(alpha - x1(t)) equals the slope,
    # has an alpha-independent curve parameter; NaN marks the segments whose
    # slope f' never takes, and a NaN fails every comparison below
    dlo, dhi = curve.df_range()
    slope = dx2 / safe_dx1
    has_crit = ~vertical & (slope >= dlo - 1e-9) & (slope <= dhi + 1e-9)
    tc_curve = np.full(len(coords), np.nan)
    tc_curve[has_crit] = curve.df_inv_array(slope[has_crit])
    del slope, has_crit

    def value(al: np.ndarray, t: np.ndarray) -> np.ndarray:
        # ay + t * dx2 + f(clip(al - (ax + t * dx1))), in one reused buffer
        v = t * dx1
        v += ax
        np.subtract(al, v, out=v)
        fx = curve.f_array(np.clip(v, curve.a, curve.b, out=v))
        np.multiply(t, dx2, out=v)
        v += ay
        v += fx
        return v

    alphas = np.asarray(alphas, dtype=float)
    rows = max(1, BUDGET // len(coords))
    # temporaries are reused through out= or deleted once spent: freed numpy
    # buffers stay in the malloc heap, so this loop's high-water mark shows
    # in the peak RSS of the whole run
    for first in range(0, len(alphas), rows):
        al = alphas[first : first + rows, None]
        lo, hi = curve.strip(al)
        bound_lo = (lo - ax) / safe_dx1
        t1 = (hi - ax) / safe_dx1
        t0 = np.minimum(bound_lo, t1)
        np.maximum(bound_lo, t1, out=t1)
        del bound_lo
        # validity from the unclipped window: the strip-parameter range must
        # meet [0, 1], otherwise clipping would fabricate an endpoint touch;
        # vertical segments keep the full range and are valid inside the strip
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
        del v0
        tc = (al - tc_curve - ax) / safe_dx1
        inside = (tc > t0) & (tc < t1)
        del t0, t1
        if inside.any():
            vc = value(al, tc)
            np.minimum(los, vc, out=los, where=inside)
            np.maximum(his, vc, out=his, where=inside)
            del vc
        del tc, inside
        np.copyto(los, np.inf, where=~valid)
        yield from _canonical_rows(los, his)


def project_blinds(curve: CurveProfile, alpha: float, blinds: "BlindSet") -> IntervalUnion:
    """Canonical union of the Phi_alpha images of all members of a blind set."""
    return next(project_blinds_grid(curve, [alpha], blinds))
